package dynamics

import (
	"sync"

	"ncg/internal/game"
	"ncg/internal/graph"
)

// engine carries the per-run acceleration state of a process: a worker pool
// with per-worker scratches over which happiness probes are fanned out, and
// an incrementally maintained all-pairs distance matrix from which the cost
// policies read agent costs instead of re-running n breadth-first searches
// every step.
//
// Both accelerations are exact: probe fan-out preserves the serial probe
// order (waves are collected in order, so results are identical at any
// worker count), and the distance cache reproduces BFS distances to the
// bit, so seeded runs and TieFirst/TieLast traces match the unaccelerated
// process step for step.
//
// An engine borrows its heavy state — game scratches, the distance cache,
// batch-BFS scratches, policy ordering buffers — from the Runner that owns
// it, so back-to-back runs on same-sized networks reuse one set of arenas
// instead of reallocating them every trial.
type engine struct {
	g       graph.Store
	gm      game.Game
	workers int
	scr     []*game.Scratch
	// halvesOK records that the game's edge-cost term is derivable from
	// degrees, the precondition for serving costs from the distance cache.
	halvesOK bool
	// sums selects landmark mode's cost reads: the primary scratch's
	// all-sources pass, memoized per network version.
	sums  bool
	cache *costCache
	// lmk is the landmark oracle of landmark-mode runs (nil otherwise),
	// kept exact across moves by afterMove.
	lmk   *graph.Landmarks
	probe []bool
	// ord/agents/costs are the reusable buffers of the engine-side policy
	// orderings (pickEngine), so cost sorting allocates nothing per step.
	ord    []int
	agents []costedAgent
	costs  []game.Cost
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
		// wrong network; cost() reinstalls the cache once it is built.
		s.SetDistOracle(nil)
		s.SetLandmarks(e.lmk)
	}
	// Naive-wrapped games deliberately run without the distance cache:
	// the wrap marks a regime (see game.PreferNaiveScan) where cache
	// maintenance costs more than the BFS costs it replaces. Landmark
	// mode skips the cache too — its O(n²) matrix is exactly what the
	// mode exists to avoid. Its cost reads come from one batched
	// all-sources pass per network version instead, memoized in the
	// primary scratch in O(n) memory, which also lets that scratch score
	// SUM leaf movers without a search per target. In SUM games afterMove
	// carries the memo across leaf swaps (game.FoldLeafSwap) as its last
	// act, after the landmark repair has settled AdjVersion, so a run
	// whose movers are leaves pays the pass once; any other move reruns
	// it lazily.
	e.halvesOK, e.sums = false, false
	if n > 0 && !game.IsNaive(gm) {
		_, ok := game.EdgeCostHalves(gm, g, 0)
		e.halvesOK = ok && spec.Mode != OracleLandmark
		e.sums = ok && spec.Mode == OracleLandmark
	}
	if cap(e.probe) < workers {
		e.probe = make([]bool, workers)
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

// scratch returns the primary scratch, for serial work.
func (e *engine) scratch() *game.Scratch { return e.scr[0] }

// cost returns agent u's current cost, served from the distance cache when
// the game's cost model allows it. The first call builds the cache with the
// batched all-sources kernel — sharded over the worker pool when one is
// configured, which is exact: shards write disjoint column blocks — and
// installs it as the scratches' distance oracle, which lets delta scans
// score additions searchlessly and prune hopeless swap targets. Landmark
// mode reads the primary scratch's memoized all-sources pass instead.
func (e *engine) cost(u int) game.Cost {
	if e.sums {
		return game.MemoCost(e.g, e.gm, u, e.scr[0])
	}
	if !e.halvesOK {
		return e.gm.Cost(e.g, u, e.scr[0])
	}
	if e.cache == nil {
		e.cache = e.obtainCache()
		for _, s := range e.scr {
			s.SetDistOracle(e.cache)
		}
	}
	h, _ := game.EdgeCostHalves(e.gm, e.g, u)
	return game.Cost{Halves: h, Dist: e.cache.distCost(u, e.gm.DistKind())}
}

// obtainCache recycles the arena's cache when the size matches, then
// (re)builds it for the current network.
func (e *engine) obtainCache() *costCache {
	n := e.g.N()
	c := e.arena.cache
	if c == nil || c.n != n {
		c = newCostCacheShell(n)
		e.arena.cache = c
	}
	c.build(e.g, e.buildScratches())
	return c
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
// engine state; it is the one commit path of sequential and round play.
func (e *engine) commit(mv game.Move) {
	pre := e.g.AdjVersion()
	game.ApplyMove(e.g, mv)
	e.afterMove(pre, mv)
}

// afterMove folds an applied move into the cache, the landmark oracle and,
// in SUM games, landmark mode's memoized all-sources sums (a MAX read
// reruns the pass on a folded memo, so MAX games skip the fold); g must
// already be in the post-move state and pre is its AdjVersion before the
// move. The landmark repair is invoked explicitly rather than through the
// graph's observer slot, which cycle detection occupies with the state
// fingerprint; the repair's transient edge replay fires that observer
// symmetrically, so the fingerprint cancels back to the post-move state.
//
// The leaf-swap fold must run last: the landmark repair's transient
// remove/add bumps AdjVersion twice, and the fold keys the memo to the
// version it observes, so a fold placed before the repair would leave the
// memo stale and the next cost read would rerun the pass anyway. Moves the
// fold does not cover leave the memo keyed to the pre-move version, so the
// next cost read reruns the pass.
func (e *engine) afterMove(pre uint64, mv game.Move) {
	if e.cache != nil {
		e.cache.update(e.g, mv)
	}
	if e.lmk != nil {
		e.lmk.Apply(e.g, mv.Agent, mv.Drop, mv.Add)
	}
	if e.sums && e.gm.DistKind() == game.Sum {
		e.scr[0].FoldLeafSwap(e.g, pre, mv)
	}
}

// firstUnhappy returns the first agent of order with an improving move, or
// -1. With multiple workers, probes run in waves of one agent per worker
// (every game's queries only read the graph); the waves are scanned in
// order, so the result is independent of scheduling.
func (e *engine) firstUnhappy(order []int) int {
	if e.workers <= 1 || len(order) < 2 {
		s := e.scr[0]
		for _, u := range order {
			if e.gm.HasImproving(e.g, u, s) {
				return u
			}
		}
		return -1
	}
	// Wave sizes ramp up exponentially: the first probed agent is very
	// often already the mover, so speculation only widens while a streak
	// of happy agents keeps paying for it.
	wave := 1
	for base := 0; base < len(order); base += wave {
		if base > 0 {
			wave *= 2
			if wave > e.workers {
				wave = e.workers
			}
		}
		end := base + wave
		if end > len(order) {
			end = len(order)
		}
		chunk := order[base:end]
		if len(chunk) == 1 {
			if e.gm.HasImproving(e.g, chunk[0], e.scr[0]) {
				return chunk[0]
			}
			continue
		}
		var wg sync.WaitGroup
		for i := range chunk {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				e.probe[i] = e.gm.HasImproving(e.g, chunk[i], e.scr[i])
			}(i)
		}
		wg.Wait()
		for i := range chunk {
			if e.probe[i] {
				return chunk[i]
			}
		}
	}
	return -1
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

// costCache is the incrementally maintained all-pairs shortest-path state
// of the current network: the full distance matrix plus the per-source
// aggregates that agent distance costs are read from.
//
// The matrix is constructed by the batched bit-parallel BFS kernel, 64
// sources per pass (optionally sharded over the worker pool). Added edges
// are folded in with the exact single-insertion rule
// d'(a,b) = min(d(a,b), d(a,u)+1+d(y,b), d(a,y)+1+d(u,b)); for removed
// edges {u,x}, a source row can only change if some shortest path from it
// crossed the edge, which requires |d(a,u) - d(a,x)| = 1; rows meeting that
// are repaired by PartialBFS over their damage, except that rows with more
// than n/2 damaged entries are collected and re-searched together by one
// batched BFS pass over the post-move network.
type costCache struct {
	n       int
	d       []int32 // row-major distance matrix
	sum     []int64 // per-source sum of distances within its component
	ecc     []int32 // per-source eccentricity within its component
	reached []int   // per-source component size (including the source)
	bfs     *graph.BFSScratch
	repair  *graph.RepairScratch
	batch   *graph.BatchBFSScratch
	suspect graph.Bitset
	oldU    []int32 // pre-removal rows of the dropped edge's endpoints
	oldX    []int32
	res     []graph.BFSResult // batch aggregate staging
	refresh []int             // rows pending a batched full re-search
	rows    [][]int32         // row-pointer staging for batched refreshes
}

// newCostCacheShell allocates an empty cache for n-vertex networks; build
// fills it.
func newCostCacheShell(n int) *costCache {
	return &costCache{
		n:       n,
		d:       make([]int32, n*n),
		sum:     make([]int64, n),
		ecc:     make([]int32, n),
		reached: make([]int, n),
		bfs:     graph.NewBFSScratch(n),
		repair:  graph.NewRepairScratch(n),
		batch:   graph.NewBatchBFSScratch(n),
		suspect: graph.NewBitset(n),
		oldU:    make([]int32, n),
		oldX:    make([]int32, n),
		res:     make([]graph.BFSResult, n),
		refresh: make([]int, 0, n),
		rows:    make([][]int32, 0, n),
	}
}

func newCostCache(g graph.Store) *costCache {
	c := newCostCacheShell(g.N())
	c.build(g, nil)
	return c
}

// build recomputes the whole matrix and its aggregates with the batched
// kernel. par, when it holds more than one scratch, splits the source
// groups into that many shards built concurrently; shards write disjoint
// column blocks and aggregate ranges, so the result is bit-identical to
// the serial build.
func (c *costCache) build(g graph.Store, par []*graph.BatchBFSScratch) {
	n := c.n
	if len(par) > 1 {
		graph.FillUnreachable(c.d)
		groups := (n + 63) / 64
		span := (groups + len(par) - 1) / len(par) * 64
		var wg sync.WaitGroup
		for w := 0; w*span < n; w++ {
			lo := w * span
			hi := lo + span
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int, s *graph.BatchBFSScratch) {
				defer wg.Done()
				g.AllSourcesBFSShard(lo, hi, c.d, c.res, s)
			}(lo, hi, par[w])
		}
		wg.Wait()
	} else {
		g.AllSourcesBFSFlat(c.d, c.res, c.batch)
	}
	for u := 0; u < n; u++ {
		r := c.res[u]
		c.sum[u] = r.Sum
		c.ecc[u] = r.Ecc
		c.reached[u] = r.Reached
	}
}

func (c *costCache) row(u int) []int32 { return c.d[u*c.n : (u+1)*c.n] }

// Row implements game.DistOracle. Run keeps the cache exact across moves
// (update runs before any subsequent scan), so scans may trust it.
func (c *costCache) Row(u int) []int32 { return c.row(u) }

// refreshRow recomputes row u by BFS and its aggregates.
func (c *costCache) refreshRow(g graph.Store, u int) {
	r := g.BFS(u, c.row(u), c.bfs)
	c.sum[u] = r.Sum
	c.ecc[u] = r.Ecc
	c.reached[u] = r.Reached
}

// flushRefresh re-searches every row queued in c.refresh with one batched
// pass and rebuilds their aggregates. A single queued row falls back to a
// plain BFS, which skips the kernel's per-call CSR snapshot.
func (c *costCache) flushRefresh(g graph.Store) {
	switch len(c.refresh) {
	case 0:
		return
	case 1:
		c.refreshRow(g, c.refresh[0])
	default:
		c.rows = c.rows[:0]
		for _, a := range c.refresh {
			c.rows = append(c.rows, c.row(a))
		}
		res := c.res[:len(c.refresh)]
		g.BatchBFS(c.refresh, c.rows, res, c.batch)
		for i, a := range c.refresh {
			c.sum[a] = res[i].Sum
			c.ecc[a] = res[i].Ecc
			c.reached[a] = res[i].Reached
		}
	}
	c.refresh = c.refresh[:0]
}

// aggregateRow rebuilds the aggregates of row u from the matrix.
func (c *costCache) aggregateRow(u int) {
	row := c.row(u)
	var sum int64
	var ecc int32
	reached := 0
	for _, dv := range row {
		if dv >= graph.Unreachable {
			continue
		}
		reached++
		sum += int64(dv)
		if dv > ecc {
			ecc = dv
		}
	}
	c.sum[u] = sum
	c.ecc[u] = ecc
	c.reached[u] = reached
}

// distCost returns the distance cost of agent u under the given kind,
// matching game cost semantics (DistInf when the network is disconnected).
func (c *costCache) distCost(u int, kind game.DistKind) int64 {
	if c.reached[u] < c.n {
		return game.DistInf
	}
	if kind == game.Sum {
		return c.sum[u]
	}
	return int64(c.ecc[u])
}

// update folds an applied move into the matrix; g must be post-move.
func (c *costCache) update(g graph.Store, mv game.Move) {
	u := mv.Agent
	for _, y := range mv.Add {
		c.addEdge(u, y)
	}
	switch len(mv.Drop) {
	case 0:
	case 1:
		c.dropEdge(g, u, mv.Drop[0])
	default:
		// Multi-edge removals (Buy, bilateral strategy changes) fall back
		// to re-searching every row that might have used a dropped edge —
		// all collected first, then re-run in one batched pass.
		c.refresh = c.refresh[:0]
		for a := 0; a < c.n; a++ {
			row := c.row(a)
			for _, x := range mv.Drop {
				// The edge {u,x} existed before removal, so its endpoint
				// distances from a differ by at most one; they differ by
				// exactly one iff the edge lay on a shortest-path tree of
				// a.
				if row[u] != row[x] {
					c.refresh = append(c.refresh, a)
					break
				}
			}
		}
		c.flushRefresh(g)
	}
}

// dropEdge folds the removal of edge {u,x} into the matrix; g must be the
// post-move network. An affected row keeps every entry with a shortest
// path avoiding the edge — entry v survives unless
// d(a,p) + 1 + d(q,v) = d(a,v) with p the nearer endpoint and q the
// farther — and the damaged entries are settled by PartialBFS from the
// survivors, costing O(n) plus local work instead of a full search. Rows
// with more than n/2 damaged entries are cheaper to re-search outright;
// they are queued and re-run together in one batched BFS pass.
func (c *costCache) dropEdge(g graph.Store, u, x int) {
	n := c.n
	copy(c.oldU, c.row(u))
	copy(c.oldX, c.row(x))
	c.refresh = c.refresh[:0]
	for a := 0; a < n; a++ {
		row := c.row(a)
		au, ax := row[u], row[x]
		if au == ax {
			continue // the edge was on no shortest-path tree of a
		}
		oldQ := c.oldX
		ap := au
		if ax < au {
			oldQ = c.oldU
			ap = ax
		}
		c.suspect.Reset()
		damaged := 0
		for v := 0; v < n; v++ {
			if row[v] == ap+1+oldQ[v] {
				row[v] = graph.Unreachable
				c.suspect.Set(v)
				damaged++
			}
		}
		if damaged == 0 {
			continue
		}
		if damaged > n/2 {
			c.refresh = append(c.refresh, a)
			continue
		}
		g.PartialBFS(row, c.suspect, c.repair)
		c.aggregateRow(a)
	}
	c.flushRefresh(g)
}

// addEdge applies the exact single-edge-insertion rule for {u,y}. Working
// in place is sound: every already-updated value is a true post-insertion
// distance, so the minima never undershoot.
func (c *costCache) addEdge(u, y int) {
	n := c.n
	ru := c.row(u)
	ry := c.row(y)
	for a := 0; a < n; a++ {
		row := c.row(a)
		au, ay := row[u], row[y]
		if au >= graph.Unreachable && ay >= graph.Unreachable {
			continue
		}
		// The new edge shortens a path from a only if it bridges endpoint
		// distances at least two apart: otherwise a->u->y->b is already
		// matched by the triangle route through the nearer endpoint.
		if d := au - ay; d >= -1 && d <= 1 {
			continue
		}
		changed := false
		for b := 0; b < n; b++ {
			best := row[b]
			if v := au + 1 + ry[b]; v < best {
				best = v
			}
			if v := ay + 1 + ru[b]; v < best {
				best = v
			}
			if best < row[b] {
				row[b] = best
				changed = true
			}
		}
		if changed {
			c.aggregateRow(a)
		}
	}
}
