package game

import (
	"ncg/internal/graph"
)

// Swap is the Swap Game of Alon et al. (SPAA'10): an agent may replace one
// incident edge — regardless of who owns it — by an edge to a vertex that is
// not currently a neighbour. Agents pay distance cost only.
type Swap struct {
	base
}

// NewSwap returns the Swap Game with the given distance-cost kind.
func NewSwap(kind DistKind) *Swap {
	return &Swap{base{kind: kind, alpha: AlphaInt(1)}}
}

// NewSwapHost returns the Swap Game restricted to a host graph: swap targets
// must be host edges.
func NewSwapHost(kind DistKind, host graph.Store) *Swap {
	return &Swap{base{kind: kind, alpha: AlphaInt(1), host: host}}
}

func (sg *Swap) Name() string {
	return sg.kind.String() + "-SG"
}

// OwnershipMatters is false: Swap Game states are edge sets.
func (sg *Swap) OwnershipMatters() bool { return false }

// Cost returns u's distance cost.
func (sg *Swap) Cost(g graph.Store, u int, s *Scratch) Cost {
	return agentCost(g, u, sg.kind, modelSwap, s)
}

func (sg *Swap) dropCandidates(g graph.Store, u int, dst []int) []int {
	return g.NeighborList(u, dst)
}

func (sg *Swap) scan(g graph.Store, u int, f *fold) {
	swapScan(&sg.base, g, u, sg.dropCandidates, f)
}

func (sg *Swap) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return s.probe(sg.scan, g, u, sg.alpha)
}

func (sg *Swap) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return s.bestMoves(sg.scan, g, u, sg.alpha, dst)
}

func (sg *Swap) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return s.improving(sg.scan, g, u, sg.alpha, dst)
}

// AsymSwap is the Asymmetric Swap Game of Mihalák & Schlegel: only the owner
// of an edge may swap it.
type AsymSwap struct {
	base
}

// NewAsymSwap returns the Asymmetric Swap Game with the given distance-cost
// kind.
func NewAsymSwap(kind DistKind) *AsymSwap {
	return &AsymSwap{base{kind: kind, alpha: AlphaInt(1)}}
}

// NewAsymSwapHost returns the ASG restricted to a host graph.
func NewAsymSwapHost(kind DistKind, host graph.Store) *AsymSwap {
	return &AsymSwap{base{kind: kind, alpha: AlphaInt(1), host: host}}
}

func (ag *AsymSwap) Name() string {
	return ag.kind.String() + "-ASG"
}

// OwnershipMatters is true: ASG strategies are owned-neighbour sets.
func (ag *AsymSwap) OwnershipMatters() bool { return true }

// Cost returns u's distance cost (swap games have no edge-cost term).
func (ag *AsymSwap) Cost(g graph.Store, u int, s *Scratch) Cost {
	return agentCost(g, u, ag.kind, modelSwap, s)
}

func (ag *AsymSwap) dropCandidates(g graph.Store, u int, dst []int) []int {
	return g.OwnedList(u, dst)
}

func (ag *AsymSwap) scan(g graph.Store, u int, f *fold) {
	swapScan(&ag.base, g, u, ag.dropCandidates, f)
}

func (ag *AsymSwap) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return s.probe(ag.scan, g, u, ag.alpha)
}

func (ag *AsymSwap) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return s.bestMoves(ag.scan, g, u, ag.alpha, dst)
}

func (ag *AsymSwap) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return s.improving(ag.scan, g, u, ag.alpha, dst)
}

type dropFunc func(g graph.Store, u int, dst []int) []int

// swapPrepare fills s.buf with u's drop candidates, s.buf2 with its swap
// targets, opens and initializes the delta scan, and returns u's current
// distance cost, all without mutating the graph.
func swapPrepare(b *base, g graph.Store, u int, drops dropFunc, s *Scratch) int64 {
	s.buf = drops(g, u, s.buf[:0])
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	s.deltaBegin(g, u)
	s.deltaInit(g, u)
	return s.deltaCurDist(b.kind)
}

// leafSums returns the all-sources aggregates memoized in s when u's swaps
// can be scored from them, and nil otherwise: SUM costs, u a leaf whose
// one edge is its drop candidate (left in s.buf), the network connected,
// and s holding the aggregates of its current version (MemoCost or
// AllCosts filled them; a scan never starts the pass itself).
func (s *Scratch) leafSums(b *base, g graph.Store, u int, drops dropFunc) []graph.BFSResult {
	if b.kind != Sum {
		return nil
	}
	res := s.warmSums(g)
	if res == nil || g.Degree(u) != 1 || res[u].Reached < g.N() {
		return nil
	}
	if s.buf = drops(g, u, s.buf[:0]); len(s.buf) != 1 {
		return nil
	}
	return res
}

// leafScores fills s.score with the swap scores of a leaf u from its
// aggregates res, in O(n) instead of one G-u row per target. Swapping the
// leaf's edge {u,x} for {u,y} routes all of u's distances through y, and a
// leaf lies on no shortest path between other vertices, so the post-swap
// distance sum is exactly (n-1) + Sum(y) - d(u,y) — the SUM 1-median
// argument: a leaf's best swaps connect to the 1-medians of G-u. With the
// single neighbour row of swapPrepare, d(u,y) = a(y) = 1 + min1[y]. The one
// drop is the leaf's own edge, so the scores are indexed by target
// position.
func (s *Scratch) leafScores(n int, res []graph.BFSResult) {
	s.score = s.score[:0]
	d := &s.delta
	for _, y := range s.buf2 {
		s.score = append(s.score, int64(n-1)+res[y].Sum-int64(d.min1[y]+1))
	}
}

// swapScan is the one enumerator of single-edge swaps: it offers f every
// (drop x, add y) pair of u, drops outermost, in candidate order. Each
// scan picks its scoring and pruning once:
//
//   - a SUM leaf on a network version whose aggregates s holds is scored
//     from them (see leafScores);
//   - with a distance oracle (swap games have no edge-cost term, so costs
//     are pure distances) each target's oracle bound, and for SUM the pair
//     bound that folds in the drop's penalty, is checked against the
//     fold's limit before the target's row is ever built;
//   - with an armed landmark filter instead, each target's landmark bound
//     is checked the same way, and at scale the targets that survive it at
//     the scan's opening limit are scored up front through the batched
//     kernel (see lmBatchScores);
//   - otherwise every pair is delta-scored.
//
// The limit only ever tightens during a scan, so every pair the loop
// scores has a batched score. Probes first try swapAny, which settles
// oracle and landmark scans before any neighbour row is built.
func swapScan(b *base, g graph.Store, u int, drops dropFunc, f *fold) {
	s := f.s
	leaf := s.leafSums(b, g, u, drops)
	if leaf == nil && f.q == probeQuery && swapAny(b, g, u, drops, f) {
		return
	}
	f.begin(Cost{Dist: swapPrepare(b, g, u, drops, s)})
	if leaf != nil {
		s.leafScores(g.N(), leaf)
	}
	prune := leaf == nil && s.oracle != nil
	lmPrune := leaf == nil && s.oracle == nil && s.lmk != nil && s.lmArm(u, b.kind)
	scored := leaf != nil || lmPrune && s.lmBatchScores(g, u, b.kind, f.limit())
	nt := len(s.buf2)
	for xi, x := range s.buf {
		for yi, y := range s.buf2 {
			if prune {
				bound, _ := s.deltaTargetBound(u, y, b.kind, f.limit())
				if f.prunesDist(bound) || b.kind == Sum && f.prunesDist(s.deltaPairBoundSum(u, x, y, bound)) {
					continue
				}
			}
			if lmPrune && f.prunesDist(s.lmTargetBound(y, b.kind)) {
				continue
			}
			var dist int64
			if scored {
				dist = s.score[xi*nt+yi]
			} else {
				dist = s.deltaSwapDist(g, u, x, y, b.kind)
			}
			if !f.offer(Cost{Dist: dist}, []int{x}, []int{y}) {
				return
			}
		}
	}
}

// swapAny settles a probe without the neighbour rows where it can, and
// reports whether it did. With a distance oracle installed, each target is
// first checked against its oracle bound; hopeless targets cost no search
// at all, and the neighbour-row preparation itself is deferred until some
// target survives — a happy agent is then certified without a single BFS.
// With a landmark oracle instead, one probe search arms the
// triangle-inequality filter (see landmark.go), and again the neighbour
// rows are only built once some target's bound survives. Otherwise the
// probe runs the plain loop of swapScan.
func swapAny(b *base, g graph.Store, u int, drops dropFunc, f *fold) bool {
	s := f.s
	if s.oracle == nil && s.lmk == nil {
		return false
	}
	if s.buf = drops(g, u, s.buf[:0]); len(s.buf) == 0 {
		return true // nothing to swap
	}
	s.deltaBegin(g, u)
	if s.oracle != nil {
		f.begin(Cost{Dist: s.deltaOracleCurDist(u, b.kind)})
	} else {
		if !s.lmProbe(g, u, b.kind) {
			return false
		}
		cur := s.lm.curSum
		if b.kind == Max {
			cur = s.lm.curEcc
		}
		f.begin(Cost{Dist: cur})
	}
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	if s.oracle == nil && s.delta.dn >= deltaBatchMinN {
		// At scale the surviving targets' rows go through the batched
		// kernel, 64 per group, instead of one search each.
		s.lmAnyImproving(g, u, b.kind, f)
		return true
	}
	for _, y := range s.buf2 {
		var bound int64
		if s.oracle != nil {
			bound, _ = s.deltaTargetBound(u, y, b.kind, f.limit())
		} else {
			bound = s.lmTargetBound(y, b.kind)
		}
		if f.prunesDist(bound) {
			continue
		}
		s.deltaInit(g, u)
		for _, x := range s.buf {
			if s.oracle != nil && b.kind == Sum && f.prunesDist(s.deltaPairBoundSum(u, x, y, bound)) {
				continue
			}
			if !f.offer(Cost{Dist: s.deltaSwapDist(g, u, x, y, b.kind)}, []int{x}, []int{y}) {
				return true
			}
		}
	}
	return true
}

var (
	_ Game = (*Swap)(nil)
	_ Game = (*AsymSwap)(nil)
)
