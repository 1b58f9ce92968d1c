package dynamics

import (
	"math/rand"

	"ncg/internal/game"
	"ncg/internal/graph"
	"ncg/internal/state"
)

// Runner executes processes back to back while holding every heavy
// allocation — per-worker game scratches, the all-pairs distance cache,
// batch-BFS scratches, the RNG, scan arenas and trajectory buffers — across
// runs. A sweep that executes thousands of same-sized trials through one
// Runner allocates its arenas once; at one worker its later runs are then
// allocation-flat, while at Workers > 1 each parallel probe wave and each
// parallel round scan still allocates its WaitGroup and goroutine
// closures. Arenas are resized automatically when the network size
// changes.
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
	kinds []game.MoveKind
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
	// round holds the process loop's activation, scan and collision
	// arenas (see rounds.go).
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

// Run executes the process on g, mutating it in place, and returns the
// summary; it is the arena-reusing form of the package-level Run. Every
// schedule plays through one loop (see play): a nil or Sequential{}
// schedule is the singleton round Rounds{Active: ActivePolicy}, reported
// with zero Rounds. The returned Result.Kinds aliases a runner-owned
// buffer and is valid only until the next Run on the same Runner; callers
// that retain it must copy.
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
	rd, rounds := cfg.Schedule.(Rounds)
	if !rounds {
		rd = Rounds{Active: ActivePolicy}
	}
	res := r.play(g, cfg, rd)
	if !rounds {
		res.Rounds = 0
	}
	return res
}
