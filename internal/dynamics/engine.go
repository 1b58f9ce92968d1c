package dynamics

import (
	"sync"

	"ncg/internal/game"
	"ncg/internal/graph"
)

// engine carries the per-run acceleration state of a process: a worker pool
// with per-worker scratches over which happiness probes are fanned out, and
// the source of agent costs that the cost policies read instead of
// re-running n breadth-first searches every step: an all-pairs distance
// cache, or in naive-routed and landmark-mode runs one memoized
// all-sources pass per network version (see reset). The cache is a
// graph.Rows over every vertex, built by the batched all-sources kernel and
// kept exact across moves by the same Rows.Apply repair that maintains the
// landmark oracle.
//
// Both accelerations are exact: probe fan-out preserves the serial probe
// order (waves are collected in order, so results are identical at any
// worker count), and the distance cache reproduces BFS distances to the
// bit, so seeded runs and TieFirst/TieLast traces match the unaccelerated
// process step for step.
//
// An engine borrows its heavy state — game scratches, the distance cache,
// batch-BFS scratches, policy buffers — from the Runner that owns it, so
// back-to-back runs on same-sized networks reuse one set of arenas instead
// of reallocating them every trial.
type engine struct {
	g       graph.Store
	gm      game.Game
	workers int
	scr     []*game.Scratch
	// sums selects the cost reads of naive-routed and landmark-mode runs:
	// the primary scratch's all-sources pass, memoized per network
	// version. cache is the exact distance cache of every other run whose
	// edge-cost term is derivable from degrees, built by reset.
	sums  bool
	cache *graph.Rows
	// lmk is the landmark oracle of landmark-mode runs (nil otherwise),
	// kept exact across moves by afterMove.
	lmk   *graph.Landmarks
	probe []bool
	// order is the max cost policies' lazily popped cost order, cands the
	// random policy's candidate set or the adversarial policy's unhappy
	// set, and wave the agents of the probe wave in flight; all keep their
	// buffers across steps, so neither ordering nor the candidate sets
	// allocate per step.
	order costOrder
	cands []int
	wave  []int
	// arena owns the recyclable state across runs.
	arena *Runner
}

// reset prepares the runner-owned engine for a run, reusing every arena
// whose size still fits.
func (e *engine) reset(r *Runner, g graph.Store, gm game.Game, workers int, spec OracleSpec) {
	if workers < 1 {
		workers = 1
	}
	n := g.N()
	spec = spec.resolve(n)
	e.g = g
	e.gm = gm
	e.workers = workers
	e.cache = nil
	e.arena = r
	if r.scrN != n {
		r.scr = r.scr[:0]
		r.scrN = n
	}
	for len(r.scr) < workers {
		r.scr = append(r.scr, game.NewScratch(n))
	}
	e.scr = r.scr[:workers]
	// Landmark mode: maintain k exact landmark rows instead of the n²
	// matrix. Only the delta-evaluated swap scans consult the filter;
	// other games simply run oracle-less under this mode.
	e.lmk = nil
	if spec.Mode == OracleLandmark && n > 0 && game.UsesSwapScans(gm) {
		if r.lmk == nil {
			r.lmk = graph.BuildLandmarks(g, spec.K, nil)
		} else {
			r.lmk.Rebuild(g, spec.K)
		}
		e.lmk = r.lmk
	}
	for _, s := range e.scr {
		// A stale oracle from a previous run would serve distances of the
		// wrong network.
		s.SetDistOracle(nil)
		s.SetLandmarks(e.lmk)
	}
	// Naive-wrapped games deliberately run without the distance cache:
	// the wrap marks a regime (see game.PreferNaiveScan) where cache
	// maintenance costs more than the BFS costs it replaces. Landmark
	// mode skips the cache too — its O(n²) matrix is exactly what the
	// mode exists to avoid. Both read costs from one batched all-sources
	// pass per network version instead, memoized in the primary scratch
	// in O(n) memory (on one-word networks a word-parallel level loop),
	// which also lets a landmark-mode scratch score SUM leaf movers
	// without a search per target. In SUM games afterMove carries the
	// memo across leaf swaps (game.FoldLeafSwap) as its last act, after
	// the landmark repair has settled AdjVersion, so a run whose movers
	// are leaves pays the pass once; any other move reruns it lazily.
	// Every other run whose edge-cost term is derivable from degrees
	// builds the cache here, before its first pick, and installs it as
	// the scratches' distance oracle, so the delta scans of every policy
	// read it, whether or not the policy reads costs.
	e.sums = false
	if n > 0 {
		_, ok := game.EdgeCostHalves(gm, g, 0)
		e.sums = ok && (game.IsNaive(gm) || spec.Mode == OracleLandmark)
		if ok && !e.sums {
			e.cache = e.obtainCache()
			for _, s := range e.scr {
				s.SetDistOracle(e.cache)
			}
		}
	}
	if cap(e.probe) < workers {
		e.probe = make([]bool, workers)
		e.wave = make([]int, 0, workers)
	}
	e.probe = e.probe[:workers]
}

// newEngine returns a free-standing engine with its own single-use arenas;
// runs executed through a Runner share arenas across runs instead.
func newEngine(g graph.Store, gm game.Game, workers int) *engine {
	r := &Runner{}
	r.eng.reset(r, g, gm, workers, OracleSpec{Mode: OracleExact})
	return &r.eng
}

// bare returns a serial engine over the caller's scratch s with no cost
// cache and no landmarks: its cost reads are gm.Cost and its probes
// gm.HasImproving on s. The built-in policies' Pick runs pickEngine on it.
func bare(g graph.Store, gm game.Game, s *game.Scratch) *engine {
	return &engine{g: g, gm: gm, workers: 1, scr: []*game.Scratch{s}}
}

// scratch returns the primary scratch, for serial work.
func (e *engine) scratch() *game.Scratch { return e.scr[0] }

// cost returns agent u's current cost: from the distance cache when the
// run keeps one, from the primary scratch's memoized all-sources pass in
// naive-routed and landmark-mode runs, and otherwise from the game.
func (e *engine) cost(u int) game.Cost {
	switch {
	case e.sums:
		return game.MemoCost(e.g, e.gm, u, e.scr[0])
	case e.cache == nil:
		return e.gm.Cost(e.g, u, e.scr[0])
	}
	h, _ := game.EdgeCostHalves(e.gm, e.g, u)
	return game.Cost{Halves: h, Dist: distCost(e.cache, u, e.gm.DistKind())}
}

// obtainCache recycles the arena's cache, then (re)builds it for the
// current network with the batched all-sources kernel — sharded over the
// worker pool when one is configured, which is exact: shards write
// disjoint column blocks.
func (e *engine) obtainCache() *graph.Rows {
	if e.arena.cache == nil {
		e.arena.cache = new(graph.Rows)
	}
	e.arena.cache.SearchAll(e.g, e.buildScratches())
	return e.arena.cache
}

// buildScratches returns one batch scratch per build shard: the worker pool
// size capped at the number of 64-source groups (a shard below one group
// would idle). A single shard reports nil, selecting the serial build.
func (e *engine) buildScratches() []*graph.BatchBFSScratch {
	shards := e.workers
	if groups := (e.g.N() + 63) / 64; shards > groups {
		shards = groups
	}
	if shards <= 1 {
		return nil
	}
	r := e.arena
	for len(r.batch) < shards {
		r.batch = append(r.batch, graph.NewBatchBFSScratch(e.g.N()))
	}
	return r.batch[:shards]
}

// commit applies a chosen move to the network and folds it into the
// engine state; it is the process loop's one commit path.
func (e *engine) commit(mv game.Move) {
	pre := e.g.AdjVersion()
	game.ApplyMove(e.g, mv)
	e.afterMove(pre, mv)
}

// afterMove folds an applied move into the cache, the landmark oracle and,
// in SUM games, landmark mode's memoized all-sources sums (a MAX read
// reruns the pass on a folded memo, so MAX games skip the fold); g must
// already be in the post-move state and pre is its AdjVersion before the
// move. The row repairs are invoked explicitly rather than through the
// graph's observer slot, which cycle detection occupies with the state
// fingerprint; a swap's repair lifts the inserted edge out and back
// (Rows.Apply), which fires that observer symmetrically, so the
// fingerprint cancels back to the post-move state.
//
// The leaf-swap fold must run last: the landmark repair's transient
// remove/add bumps AdjVersion twice, and the fold keys the memo to the
// version it observes, so a fold placed before the repair would leave the
// memo stale and the next cost read would rerun the pass anyway. Moves the
// fold does not cover leave the memo keyed to the pre-move version, so the
// next cost read reruns the pass.
func (e *engine) afterMove(pre uint64, mv game.Move) {
	if e.cache != nil {
		e.cache.Apply(e.g, mv.Agent, mv.Drop, mv.Add)
	}
	if e.lmk != nil {
		e.lmk.Apply(e.g, mv.Agent, mv.Drop, mv.Add)
	}
	if e.sums && e.gm.DistKind() == game.Sum {
		e.scr[0].FoldLeafSwap(e.g, pre, mv)
	}
}

// firstUnhappy probes agents in the order next yields them (-1 when none
// is left) and returns the first with an improving move, or -1. With
// multiple workers, probes run in waves of one agent per worker (every
// game's queries only read the graph); the waves are scanned in order, so
// the result is independent of scheduling.
func (e *engine) firstUnhappy(next func() int) int {
	if e.workers <= 1 {
		s := e.scr[0]
		for u := next(); u >= 0; u = next() {
			if e.gm.HasImproving(e.g, u, s) {
				return u
			}
		}
		return -1
	}
	// Wave sizes ramp up exponentially: the first probed agent is very
	// often already the mover, so speculation only widens while a streak
	// of happy agents keeps paying for it.
	for size := 1; ; size = min(2*size, e.workers) {
		chunk := e.wave[:0]
		for len(chunk) < size {
			u := next()
			if u < 0 {
				break
			}
			chunk = append(chunk, u)
		}
		switch len(chunk) {
		case 0:
			return -1
		case 1:
			if e.gm.HasImproving(e.g, chunk[0], e.scr[0]) {
				return chunk[0]
			}
			continue
		}
		var wg sync.WaitGroup
		for i, u := range chunk {
			wg.Add(1)
			go func(i, u int) {
				defer wg.Done()
				e.probe[i] = e.gm.HasImproving(e.g, u, e.scr[i])
			}(i, u)
		}
		wg.Wait()
		for i := range chunk {
			if e.probe[i] {
				return chunk[i]
			}
		}
	}
}

// unhappy appends every unhappy agent to dst in increasing order, probing
// in parallel waves when possible.
func (e *engine) unhappy(dst []int) []int {
	n := e.g.N()
	if e.workers <= 1 {
		s := e.scr[0]
		for u := 0; u < n; u++ {
			if e.gm.HasImproving(e.g, u, s) {
				dst = append(dst, u)
			}
		}
		return dst
	}
	for base := 0; base < n; base += e.workers {
		end := base + e.workers
		if end > n {
			end = n
		}
		var wg sync.WaitGroup
		for i := 0; i < end-base; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e.probe[i] = e.gm.HasImproving(e.g, base+i, e.scr[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < end-base; i++ {
			if e.probe[i] {
				dst = append(dst, base+i)
			}
		}
	}
	return dst
}

// distCost returns agent u's distance cost under kind from the cost
// cache's row aggregates, matching game cost semantics (DistInf when the
// network is disconnected).
func distCost(c *graph.Rows, u int, kind game.DistKind) int64 {
	a := c.Result(u)
	if a.Reached < c.N() {
		return game.DistInf
	}
	if kind == game.Sum {
		return a.Sum
	}
	return int64(a.Ecc)
}
