package game

import (
	"slices"

	"ncg/internal/graph"
)

// Game is the strategic substrate a network creation process runs on: it
// defines agent costs and the admissible strategy changes of Section 1.1.
//
// All methods only read g, so concurrent calls on one network are safe
// as long as each goroutine has its own Scratch; a Scratch must not be
// shared between goroutines.
type Game interface {
	// Name is a short identifier such as "SUM-ASG".
	Name() string
	// DistKind reports the distance-cost aggregation.
	DistKind() DistKind
	// Alpha is the edge price; swap games return a dummy positive value
	// that never influences costs.
	Alpha() Alpha
	// OwnershipMatters distinguishes games whose state includes the
	// ownership function (ASG, GBG, BG) from the Swap Game, where two
	// networks with the same edges are the same state.
	OwnershipMatters() bool
	// Cost returns the exact cost of agent u in g.
	Cost(g graph.Store, u int, s *Scratch) Cost
	// HasImproving reports whether u has at least one feasible strictly
	// improving strategy change; it exits early where possible.
	HasImproving(g graph.Store, u int, s *Scratch) bool
	// BestMoves appends to dst every feasible move realizing the best
	// attainable cost for u, provided that cost strictly improves on u's
	// current cost, and returns the moves with the attained cost. An
	// empty result means u is happy; the returned cost is then u's
	// current cost.
	BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost)
	// ImprovingMoves appends every feasible strictly improving move of u,
	// for weak-acyclicity analyses.
	ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move
}

// UsesSwapScans reports whether gm's best-response scans are the
// delta-evaluated swap scans, the ones that honour an installed landmark
// filter (Swap and AsymSwap; naive-wrapped games run the reference scans
// and never consult it).
func UsesSwapScans(gm Game) bool {
	switch gm.(type) {
	case *Swap, *AsymSwap:
		return true
	}
	return false
}

// EdgeCostHalves returns the alpha/2-unit edge-cost count of agent u in g
// under gm's cost model, and whether that model is known. It lets process
// engines combine cached distance costs with the degree-derived edge-cost
// term instead of re-running the game's full Cost computation.
func EdgeCostHalves(gm Game, g graph.Store, u int) (int64, bool) {
	if ng, ok := gm.(naiveGame); ok {
		gm = ng.Game
	}
	switch gm.(type) {
	case *Swap, *AsymSwap:
		return 0, true
	case *Buy, *GreedyBuy:
		return 2 * int64(g.OutDegree(u)), true
	case *Bilateral:
		return int64(g.Degree(u)), true
	}
	return 0, false
}

// AllCosts appends every agent's current cost to dst, computing all
// distance aggregates in one aggregate-only all-sources pass
// (graph.Store.AllSourcesBFS: 256 sources per sweep, leaves read off their
// parents; one word-parallel level loop on dense networks of at most 64
// agents) instead of n single-source searches. The result is identical to
// calling gm.Cost per agent; games whose edge-cost term is not derivable
// from degrees fall back to per-agent evaluation. The pass is memoized in
// s (see MemoCost), so it also warms s for the leaf scans of swap games.
func AllCosts(g graph.Store, gm Game, s *Scratch, dst []Cost) []Cost {
	for u := 0; u < g.N(); u++ {
		dst = append(dst, MemoCost(g, gm, u, s))
	}
	return dst
}

// MemoCost returns agent u's current cost, identical to gm.Cost. Where the
// game's edge-cost term is derivable from degrees, the distance aggregate
// is read from the batched all-sources pass memoized in s for g's current
// version (running it first when g changed since), so the cost reads of
// every agent of one network version share a single pass in O(n) memory.
func MemoCost(g graph.Store, gm Game, u int, s *Scratch) Cost {
	h, ok := EdgeCostHalves(gm, g, u)
	if !ok {
		return gm.Cost(g, u, s)
	}
	kind := gm.DistKind()
	return Cost{Halves: h, Dist: distCost(s.allSources(g, kind)[u], g.N(), kind)}
}

// allSources returns the per-source aggregates of the batched all-sources
// BFS pass over g, memoized on (g, AdjVersion) like the kernel scratch's
// CSR snapshot: a repeated call on an unmutated network reruns nothing.
// A memo that FoldLeafSwap carried across a move holds exact sums but
// stale eccentricities, so MAX reads rerun the pass on it.
func (s *Scratch) allSources(g graph.Store, kind DistKind) []graph.BFSResult {
	if res := s.warmSums(g); res != nil && (kind == Sum || !s.sumsFolded) {
		return res
	}
	n := g.N()
	if cap(s.sums) < n {
		s.sums = make([]graph.BFSResult, n)
	}
	s.sums = s.sums[:n]
	g.AllSourcesBFS(s.sums, s.kernel())
	s.sumsFor, s.sumsVer, s.sumsFolded = g, g.AdjVersion(), false
	return s.sums
}

// FoldLeafSwap carries the memoized all-sources aggregates across a
// committed move mv of a leaf with at most two single-source searches and
// one O(n) loop, instead of the all-sources pass the next cost read would
// rerun. g must be the post-move network and pre its AdjVersion before mv
// was applied. The fold applies only when s held the aggregates of that
// version, mv swaps the agent's one edge {u,v} for {u,w} and the network
// is connected, and it reports whether it did; otherwise the memo stays
// keyed to the old version and the next read reruns the pass.
//
// A leaf lies on no shortest path between two other agents, so only
// distances to u move: Sum'(y) = Sum(y) - d(y,v) + d(y,w) for every y != u,
// and Sum'(u) = Σ_{y≠u} (d(w,y) + 1) = Sum'(w) + n - 2, from one BFS row
// of v and one of w. For y != u, d(v,y) is d_{G-u}(v,y) in both networks,
// so when s kept the delta preparation of u's scans at version pre (a
// probe or best-move scan of u before the commit), v's row is read from
// it and only w is searched. Eccentricities are not kept (u may have been
// y's one farthest agent), so the folded memo serves SUM reads only.
func (s *Scratch) FoldLeafSwap(g graph.Store, pre uint64, mv Move) bool {
	if s.sumsFor != g || s.sumsVer != pre || len(mv.Drop) != 1 || len(mv.Add) != 1 {
		return false
	}
	u, n := mv.Agent, g.N()
	if g.Degree(u) != 1 || s.sums[u].Reached < n {
		return false
	}
	if len(s.foldV) != n {
		s.foldV, s.foldW = make([]int32, n), make([]int32, n)
	}
	rv := s.delta.preparedRow(g, pre, u, mv.Drop[0])
	if rv == nil {
		rv = s.foldV
		g.BFS(mv.Drop[0], rv, s.bfs)
	}
	rw := g.BFS(mv.Add[0], s.foldW, s.bfs)
	for y, dv := range rv {
		s.sums[y].Sum += int64(s.foldW[y] - dv)
	}
	s.sums[u].Sum = rw.Sum + int64(n-2)
	s.sumsVer, s.sumsFolded = g.AdjVersion(), true
	return true
}

// warmSums returns the memoized aggregates if they hold g's current
// version, and nil otherwise. Scans read them through this and never start
// a pass of their own.
func (s *Scratch) warmSums(g graph.Store) []graph.BFSResult {
	if s.sumsFor != g || s.sumsVer != g.AdjVersion() {
		return nil
	}
	return s.sums
}

// kernel returns the scratch's batched-BFS kernel scratch, allocating it on
// first use.
func (s *Scratch) kernel() *graph.BatchBFSScratch {
	if s.batch == nil {
		s.batch = graph.NewBatchBFSScratch(s.n)
	}
	return s.batch
}

// TotalCost sums every agent's cost of g under gm — the social cost in
// alpha/2 edge units and distance units — without materializing the
// per-agent slice. It is the fold form of AllCosts for metrics-in-a-loop
// callers (quality scoring of campaign hits, ensemble sinks): with a warm
// Scratch the batched path allocates nothing.
func TotalCost(g graph.Store, gm Game, s *Scratch) (halves, dist int64) {
	for u := 0; u < g.N(); u++ {
		c := MemoCost(g, gm, u, s)
		halves += c.Halves
		dist += c.Dist
	}
	return halves, dist
}

// Scratch bundles the reusable buffers of cost and best-response
// computations for one goroutine.
type Scratch struct {
	n      int
	bfs    *graph.BFSScratch
	repair *graph.RepairScratch
	buf    []int
	buf2   []int
	nbrs   []int
	set    graph.Bitset
	// scored holds the naive scans' batched search results, one per
	// target of a drop (see offerTargets).
	scored []graph.BFSResult

	// delta holds the lazily allocated state of delta-evaluated scans
	// (see delta.go).
	delta deltaScratch

	// pool backs the Drop/Add slices of enumerated moves (see fold.offer).
	// It is reset at the start of every enumeration (BestMoves,
	// ImprovingMoves, the multi-swap scans), so moves returned by those
	// methods are valid only until the next enumeration on the same
	// Scratch; callers that retain them must Clone.
	pool []int

	// fold is the state of the query in progress (see openFold).
	fold fold

	// oracle, when installed, provides exact current-network distances
	// that delta scans use to score additions without a search and to
	// prune hopeless swap targets. See SetDistOracle.
	oracle DistOracle

	// lmk, when installed (and oracle is not), provides landmark distance
	// rows that swap scans turn into sound lower bounds for candidate
	// pruning; lm holds the filter's per-scan tables. See SetLandmarks.
	lmk *graph.Landmarks
	lm  lmScratch

	// batch is the one kernel scratch behind every batched search on s:
	// the all-sources pass, oracle-less neighbour rows and landmark
	// survivor rows.
	batch *graph.BatchBFSScratch
	// sums memoizes the per-source aggregates of the all-sources pass over
	// sumsFor at adjacency version sumsVer (see allSources).
	sums    []graph.BFSResult
	sumsFor graph.Store
	sumsVer uint64
	// sumsFolded marks sums carried across moves by FoldLeafSwap, whose
	// Ecc entries are stale; foldV/foldW are the fold's two BFS rows.
	sumsFolded   bool
	foldV, foldW []int32
	// score memoizes the swap scores of the current scan, indexed
	// xi*len(buf2)+yi, when a batched source (leafScores, lmBatchScores)
	// scored it up front.
	score []int64
}

// DistOracle provides exact all-pairs shortest-path distances of the
// current network, typically an incrementally maintained matrix owned by a
// process engine.
type DistOracle interface {
	// Row returns the distances from v to every vertex (Unreachable for
	// other components). The caller must not modify the slice.
	Row(v int) []int32
}

// SetDistOracle installs (or, with nil, removes) a distance oracle on s.
// The oracle MUST reflect the scanned network exactly whenever a scan
// runs: callers that mutate the network must update the oracle before the
// next scan or clear it. A stale oracle yields wrong scan results.
func (s *Scratch) SetDistOracle(o DistOracle) { s.oracle = o }

// NewScratch returns scratch space for games on n-vertex networks.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:      n,
		bfs:    graph.NewBFSScratch(n),
		set:    graph.NewBitset(n),
		repair: graph.NewRepairScratch(n),
	}
}

// base carries the configuration shared by all concrete games.
type base struct {
	kind  DistKind
	alpha Alpha
	host  graph.Store // nil means the complete host graph
}

func (b base) DistKind() DistKind { return b.kind }
func (b base) Alpha() Alpha       { return b.alpha }

// allowed reports whether the host graph permits edge {u,v}.
func (b base) allowed(u, v int) bool {
	return b.host == nil || b.host.HasEdge(u, v)
}

// costModel selects how many alpha/2 units an agent pays.
type costModel int

const (
	modelSwap       costModel = iota // no edge cost
	modelUnilateral                  // owner pays alpha per owned edge
	modelBilateral                   // alpha/2 per incident edge
)

// agentCost evaluates u's cost in g under the given model.
func agentCost(g graph.Store, u int, kind DistKind, model costModel, s *Scratch) Cost {
	r := g.BFS(u, nil, s.bfs)
	c := Cost{Dist: distCost(r, g.N(), kind)}
	switch model {
	case modelUnilateral:
		c.Halves = 2 * int64(g.OutDegree(u))
	case modelBilateral:
		c.Halves = int64(g.Degree(u))
	}
	return c
}

// movedCost returns agent v's cost in the network that move m would
// produce, without producing it: the distance term comes from one search
// of the edited network (graph.Store's BFSEdited), which leaves g, its
// AdjVersion and its observer untouched, and the edge-cost halves from v's
// degrees adjusted by the move. Added edges are owned by the mover; a
// dropped edge leaves whichever endpoint owned it.
func movedCost(g graph.Store, v int, m Move, kind DistKind, model costModel, s *Scratch) Cost {
	r := g.BFSEdited(v, m.Agent, m.Drop, m.Add, nil, s.bfs)
	c := Cost{Dist: distCost(r, g.N(), kind)}
	u := m.Agent
	switch model {
	case modelUnilateral:
		out := g.OutDegree(v)
		if v == u {
			out += len(m.Add)
			for _, x := range m.Drop {
				if g.Owns(u, x) {
					out--
				}
			}
		} else if g.Owns(v, u) && slices.Contains(m.Drop, v) {
			out--
		}
		c.Halves = 2 * int64(out)
	case modelBilateral:
		deg := g.Degree(v)
		switch {
		case v == u:
			deg += len(m.Add) - len(m.Drop)
		case slices.Contains(m.Drop, v):
			deg--
		case slices.Contains(m.Add, v):
			deg++
		}
		c.Halves = int64(deg)
	}
	return c
}

// swapTargets returns the valid swap/buy targets of agent u in g appended
// to dst: vertices that are not u, not already neighbours of u, and
// host-permitted.
func (b base) swapTargets(g graph.Store, u int, dst []int) []int {
	n := g.N()
	for v := 0; v < n; v++ {
		if v == u || g.HasEdge(u, v) || !b.allowed(u, v) {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}
