package dynamics

import (
	"ncg/internal/game"
	"ncg/internal/graph"
)

// TieBreak selects among equally good best moves of the moving agent.
type TieBreak int

const (
	// TieRandom picks uniformly at random among the best moves
	// (Section 3.4.1: "breaking ties uniformly at random").
	TieRandom TieBreak = iota
	// TieFirst picks the first best move in enumeration order. Move
	// enumeration orders deletions before swaps before additions (the
	// preference of Section 4.2.1) and targets by increasing index (the
	// rule of the Theorem 2.11 trace), so TieFirst implements both
	// deterministic rules of the paper.
	TieFirst
	// TieLast picks the last best move in enumeration order.
	TieLast
)

func (t TieBreak) String() string {
	switch t {
	case TieRandom:
		return "random"
	case TieFirst:
		return "first"
	default:
		return "last"
	}
}

// Config parameterizes a network creation process.
type Config struct {
	// Game is the underlying network creation game. Required.
	Game game.Game
	// Policy decides who moves; defaults to the max cost policy.
	Policy Policy
	// Tie breaks among best moves; defaults to TieRandom.
	Tie TieBreak
	// MaxSteps aborts a (potentially non-convergent) process; defaults to
	// 200*n + 1000.
	MaxSteps int
	// Seed feeds the deterministic RNG used by policy and tie-breaking.
	Seed int64
	// Workers sets how many goroutines fan out the per-agent happiness
	// probes of the built-in policies (and the scans of round play); 0 or
	// 1 probes serially. Every game's probes only read the graph, probe
	// results are collected in deterministic order and the cost cache is
	// exact, so the trace of a seeded run is identical at any worker
	// count.
	Workers int
	// Oracle selects the distance-oracle mode backing scans and cost
	// reads. The zero value (auto) resolves by run size: exact below
	// AutoLandmarkMinN vertices, landmark above. Landmark mode prunes
	// with sound bounds and re-scores survivors exactly, so its traces
	// are bit-identical to exact mode at any size.
	Oracle OracleSpec
	// Backend selects the adjacency representation of runners that build
	// their own working copy of the network (cycles.SearchRoundCycle, the
	// ensemble and campaign spines, the cmds). Run and Runner.Run play
	// whatever representation g already has and never consult it: the
	// caller chose g's type when constructing it, typically through
	// BackendSpec.Materialize.
	Backend BackendSpec
	// Schedule selects the activation regime: nil or Sequential{} runs the
	// classical one-agent-per-step process, a Rounds value runs
	// simultaneous-move rounds (see Scheduler). Sequential runs are
	// bit-identical whether Schedule is nil or Sequential{}.
	Schedule Scheduler
	// DetectCycles records visited states and stops when a state repeats,
	// proving non-convergence of the played trajectory. States are
	// compared with or without ownership according to the game. Under a
	// Rounds schedule, states are compared at round boundaries.
	DetectCycles bool
	// OnStep, if non-nil, is invoked after each applied move. It must not
	// mutate g; the move is a private copy the callback may retain.
	OnStep func(step int, mover int, mv game.Move, g graph.Store)
	// Cancel, if non-nil, stops the process at the next step boundary
	// (round boundary under a Rounds schedule) once closed — the
	// graceful-shutdown seam of interactive traces. A cancelled run
	// reports like one that hit its step bound: the reached network is a
	// valid intermediate state, never a torn one.
	Cancel <-chan struct{}
}

// cancelled is the non-blocking poll of Config.Cancel (nil: never fires).
func cancelled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Result summarizes a finished process.
type Result struct {
	// Steps is the number of improving moves performed.
	Steps int
	// Converged reports that the final network is stable (no unhappy
	// agents), i.e. a pure Nash equilibrium was reached.
	Converged bool
	// Cycled reports that a previously visited state re-appeared
	// (requires Config.DetectCycles).
	Cycled bool
	// CycleLen is the number of moves between the two visits of the
	// repeated state when Cycled is set.
	CycleLen int
	// Rounds is the number of simultaneous-move rounds played; zero under
	// the sequential schedule.
	Rounds int
	// Skipped counts improving moves withheld by a round collision policy
	// (including every move of a rejected round); zero under the
	// sequential schedule.
	Skipped int
	// MoveKinds counts performed moves by kind.
	MoveKinds [4]int
	// Kinds is the per-step move-kind trajectory (phase analysis,
	// Section 4.2.2).
	Kinds []game.MoveKind
}

// Run executes the process on g, mutating it in place, and returns the
// summary. The final content of g is the reached network. Sweeps that run
// many processes back to back should reuse a Runner instead, which holds
// its allocations across runs; Run is exactly a single-use Runner.
func Run(g graph.Store, cfg Config) Result {
	return NewRunner().Run(g, cfg)
}

// Stable reports whether g is a stable network (pure Nash equilibrium) of
// gm: no agent has a feasible improving move. The scan runs through the
// process engine: one batched all-pairs build serves every agent's probe
// as a distance oracle, replacing the per-candidate searches of an
// oracle-less HasImproving sweep (see BenchmarkStable).
func Stable(g graph.Store, gm game.Game) bool {
	if game.PreferNaiveScan(gm, g) {
		gm = game.Naive(gm)
	}
	e := newEngine(g, gm, 1)
	if e.halvesOK {
		// Building the cache installs it as the scratches' oracle.
		e.cost(0)
	}
	return MinIndex{}.pickEngine(e, nil) < 0
}
