package dynamics

import (
	"fmt"
	"math/rand"

	"ncg/internal/game"
	"ncg/internal/graph"
	"ncg/internal/state"
)

// Runner executes processes back to back while holding every heavy
// allocation — per-worker game scratches, the all-pairs distance cache,
// batch-BFS scratches, the RNG, move and trajectory buffers — across runs.
// A sweep that executes thousands of same-sized trials through one Runner
// allocates its arenas once and then runs allocation-flat; arenas are
// resized automatically when the network size changes.
//
// A Runner is not safe for concurrent use; give each worker its own.
// Results are identical to the package-level Run for every configuration.
type Runner struct {
	rng  *rand.Rand
	eng  engine
	scr  []*game.Scratch
	scrN int
	// batch holds one kernel scratch per cache-build shard.
	batch []*graph.BatchBFSScratch
	cache *graph.Rows
	// lmk is the recyclable landmark oracle of landmark-mode runs.
	lmk *graph.Landmarks
	// capN is the largest network size the arenas were grown for since
	// the last release; when a run arrives at under a quarter of that,
	// the oversized arenas are dropped instead of pinning their memory.
	capN  int
	moves []game.Move
	kinds []game.MoveKind
	// dropBuf/addBuf back the per-step clone of the picked move, reused
	// when no OnStep callback can retain it.
	dropBuf []int
	addBuf  []int
	// DetectCycles bookkeeping: visited states are interned once each into
	// a compact-encoding store keyed by an incrementally maintained Zobrist
	// fingerprint (collision-verified byte-exact) — no per-step graph
	// clones, and the arenas persist across runs like every other buffer.
	tables *state.Tables
	tabN   int
	store  *state.Store
	fp     state.Fingerprint
	steps  []int
	enc    []uint64
	// round holds the simultaneous-move arenas (see rounds.go), unused by
	// sequential runs.
	round roundState
}

// NewRunner returns an empty Runner; arenas grow on first use.
func NewRunner() *Runner { return &Runner{} }

// seed resets the runner's RNG to the deterministic stream of seed,
// allocating it on first use.
func (r *Runner) seed(seed int64) *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
	} else {
		r.rng.Seed(seed)
	}
	return r.rng
}

// fitArenas tracks the network size the arenas serve and releases them
// when a run arrives at under a quarter of it: a sweep stepping down from
// a large n would otherwise pin the big run's O(n²) cache, kernel
// scratches and state store for its whole remainder. Everything regrows
// on demand, so a release only costs the reallocation.
func (r *Runner) fitArenas(n int) {
	if r.capN > 4*n {
		r.scr = nil
		r.scrN = 0
		r.batch = nil
		r.cache = nil
		r.lmk = nil
		r.tables = nil
		r.tabN = 0
		r.store = nil
		r.moves = nil
		r.steps = nil
		r.enc = nil
		r.eng = engine{}
		r.round = roundState{}
		r.capN = 0
	}
	if n > r.capN {
		r.capN = n
	}
}

// cloneInto copies mv into the runner's reusable move backing; the copy is
// valid until the next step of any run on this Runner.
func (r *Runner) cloneInto(m game.Move) game.Move {
	out := game.Move{Agent: m.Agent}
	if len(m.Drop) > 0 {
		r.dropBuf = append(r.dropBuf[:0], m.Drop...)
		out.Drop = r.dropBuf
	}
	if len(m.Add) > 0 {
		r.addBuf = append(r.addBuf[:0], m.Add...)
		out.Add = r.addBuf
	}
	return out
}

// Run executes the process on g, mutating it in place, and returns the
// summary; it is the arena-reusing form of the package-level Run. The
// returned Result.Kinds aliases a runner-owned buffer and is valid only
// until the next Run on the same Runner; callers that retain it must copy.
func (r *Runner) Run(g graph.Store, cfg Config) Result {
	if cfg.Game == nil {
		panic("dynamics: Config.Game is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = MaxCost{}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200*g.N() + 1000
	}
	if game.PreferNaiveScan(cfg.Game, g) {
		// Dense networks of at most 64 agents and MAX-swap trees (see
		// game.PreferNaiveScan): the naive scans enumerate identical moves
		// in identical order, so the trace is unchanged.
		cfg.Game = game.Naive(cfg.Game)
	}
	r.fitArenas(g.N())
	if rd, ok := cfg.Schedule.(Rounds); ok {
		return r.runRounds(g, cfg, rd)
	}
	rng := r.seed(cfg.Seed)
	e := &r.eng
	e.reset(r, g, cfg.Game, cfg.Workers, cfg.Oracle)
	s := e.scratch()
	ep, hasEngine := cfg.Policy.(enginePolicy)

	detect := cfg.DetectCycles
	var owned bool
	if detect {
		owned = cfg.Game.OwnershipMatters()
		n := g.N()
		if r.tables == nil || r.tabN != n {
			r.tables = state.NewTables(n)
			r.tabN = n
		}
		if r.store == nil {
			r.store = state.NewStore(n, owned, 1)
		} else {
			r.store.Reset(n, owned)
		}
		// The fingerprint rides along every mutation of the run: the
		// moves applied below (candidate probing never mutates the
		// graph).
		r.fp.Attach(r.tables, g)
		defer g.SetObserver(nil)
		r.steps = r.steps[:0]
	}
	// seenStep interns the current state; a repeat reports its first step.
	seenStep := func() (int, bool) {
		r.enc = r.store.Encode(g, r.enc[:0])
		ref, fresh := r.store.Intern(r.fp.Hash(owned), r.enc)
		if !fresh {
			return r.steps[ref], true
		}
		return 0, false
	}

	var res Result
	res.Kinds = r.kinds[:0]
	moves := r.moves[:0]
	if detect {
		seenStep()
		r.steps = append(r.steps, 0)
	}
	for res.Steps < cfg.MaxSteps && !cancelled(cfg.Cancel) {
		var mover int
		if hasEngine {
			mover = ep.pickEngine(e, rng)
		} else {
			mover = cfg.Policy.Pick(g, cfg.Game, s, rng)
		}
		if mover < 0 {
			res.Converged = true
			break
		}
		moves, _ = cfg.Game.BestMoves(g, mover, s, moves[:0])
		if len(moves) == 0 {
			// A policy returned an agent without improving moves;
			// that is a policy bug, not a game state.
			panic(fmt.Sprintf("dynamics: policy %q picked happy agent %d", cfg.Policy.Name(), mover))
		}
		// Clone: enumerated moves share the scratch's pooled backing and the
		// copy outlives the next scan. Without an OnStep callback nothing
		// can retain the copy past the step, so it reuses runner backing.
		mv := pickMove(moves, cfg.Tie, rng)
		if cfg.OnStep != nil {
			mv = mv.Clone()
		} else {
			mv = r.cloneInto(mv)
		}
		e.commit(mv)
		res.Steps++
		res.MoveKinds[mv.Kind()]++
		res.Kinds = append(res.Kinds, mv.Kind())
		if cfg.OnStep != nil {
			cfg.OnStep(res.Steps, mover, mv, g)
		}
		if detect {
			if first, ok := seenStep(); ok {
				res.Cycled = true
				res.CycleLen = res.Steps - first
				break
			}
			r.steps = append(r.steps, res.Steps)
		}
	}
	r.moves = moves[:0]
	r.kinds = res.Kinds[:0]
	return res
}
