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

func (sg *Swap) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return swapAny(&sg.base, g, u, sg.dropCandidates, modelSwap, s)
}

// ProbesPurely reports that HasImproving never mutates the graph, so
// concurrent probes on a shared graph are safe with per-goroutine scratch.
func (sg *Swap) ProbesPurely() bool { return true }

func (sg *Swap) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return swapBest(&sg.base, g, u, sg.dropCandidates, modelSwap, s, dst)
}

func (sg *Swap) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return swapScan(&sg.base, g, u, sg.dropCandidates, modelSwap, s, dst)
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

func (ag *AsymSwap) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return swapAny(&ag.base, g, u, ag.dropCandidates, modelSwap, s)
}

// ProbesPurely reports that HasImproving never mutates the graph, so
// concurrent probes on a shared graph are safe with per-goroutine scratch.
func (ag *AsymSwap) ProbesPurely() bool { return true }

func (ag *AsymSwap) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return swapBest(&ag.base, g, u, ag.dropCandidates, modelSwap, s, dst)
}

func (ag *AsymSwap) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return swapScan(&ag.base, g, u, ag.dropCandidates, modelSwap, s, dst)
}

type dropFunc func(g graph.Store, u int, dst []int) []int

// swapPrepare fills s.buf with u's drop candidates, s.buf2 with its swap
// targets, opens and initializes the delta scan, and returns u's current
// cost, all without mutating the graph.
func swapPrepare(b *base, g graph.Store, u int, drops dropFunc, model costModel, s *Scratch) Cost {
	s.buf = drops(g, u, s.buf[:0])
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	s.deltaBegin(g, u)
	s.deltaInit(g, u)
	return Cost{Halves: curHalves(g, u, model), Dist: s.deltaCurDist(b.kind)}
}

// leafSums returns the all-sources aggregates memoized in s when u's swaps
// can be scored from them, and nil otherwise: SUM swap costs, u a leaf
// whose one edge is its drop candidate (left in s.buf), the network
// connected, and s holding the aggregates of its current version (MemoCost
// or AllCosts filled them; a scan never starts the pass itself).
func (s *Scratch) leafSums(b *base, g graph.Store, u int, drops dropFunc, model costModel) []graph.BFSResult {
	if b.kind != Sum || model != modelSwap {
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

// swapAny reports whether u has a strictly improving single-edge swap. It
// exits as soon as one is found. A SUM leaf on a network version whose
// aggregates s holds is decided from them (see leafScores). Otherwise,
// with a distance oracle installed (swap games have no edge-cost term, so
// costs are pure distances) each target is first checked against its
// oracle bound; hopeless targets cost no search at all, and the
// neighbour-row preparation itself is deferred until some target survives
// — a happy agent is then certified without a single BFS. With a landmark
// oracle instead, one probe search arms the triangle-inequality filter
// (see landmark.go), and again the neighbour rows are only built once some
// target's bound survives.
func swapAny(b *base, g graph.Store, u int, drops dropFunc, model costModel, s *Scratch) bool {
	if res := s.leafSums(b, g, u, drops, model); res != nil {
		cur := swapPrepare(b, g, u, drops, model, s)
		s.leafScores(g.N(), res)
		for _, dist := range s.score {
			if dist < cur.Dist {
				return true
			}
		}
		return false
	}
	if model == modelSwap && s.oracle == nil && s.lmk != nil {
		s.buf = drops(g, u, s.buf[:0])
		if len(s.buf) == 0 {
			return false
		}
		s.deltaBegin(g, u)
		if s.lmProbe(g, u, b.kind) {
			s.buf2 = b.swapTargets(g, u, s.buf2[:0])
			cur := s.lm.curSum
			if b.kind == Max {
				cur = s.lm.curEcc
			}
			if s.delta.dn >= deltaBatchMinN {
				// At scale the surviving targets' rows go through the
				// batched kernel, 64 per group, instead of one search each.
				return s.lmAnyImproving(g, u, b.kind, cur)
			}
			for _, y := range s.buf2 {
				if s.lmTargetBound(y, b.kind) >= cur {
					continue
				}
				s.deltaInit(g, u)
				for _, x := range s.buf {
					if s.deltaSwapDist(g, u, x, y, b.kind) < cur {
						return true
					}
				}
			}
			return false
		}
	}
	if model == modelSwap && s.oracle != nil {
		s.buf = drops(g, u, s.buf[:0])
		if len(s.buf) == 0 {
			return false
		}
		s.buf2 = b.swapTargets(g, u, s.buf2[:0])
		s.deltaBegin(g, u)
		cur := s.deltaOracleCurDist(u, b.kind)
		for _, y := range s.buf2 {
			bound, _ := s.deltaTargetBound(u, y, b.kind, cur)
			if bound >= cur {
				continue
			}
			s.deltaInit(g, u)
			for _, x := range s.buf {
				if b.kind == Sum && s.deltaPairBoundSum(u, x, y, bound) >= cur {
					continue
				}
				if s.deltaSwapDist(g, u, x, y, b.kind) < cur {
					return true
				}
			}
		}
		return false
	}
	cur := swapPrepare(b, g, u, drops, model, s)
	for _, x := range s.buf {
		halves := deltaSwapHalves(g, u, x, model)
		for _, y := range s.buf2 {
			c := Cost{Halves: halves, Dist: s.deltaSwapDist(g, u, x, y, b.kind)}
			if c.Less(cur, b.alpha) {
				return true
			}
		}
	}
	return false
}

// swapScan appends every strictly improving single-edge swap of u to dst.
// The moves' Drop/Add slices are pooled in s and remain valid only until
// the next enumeration on s; callers that retain them must Clone.
func swapScan(b *base, g graph.Store, u int, drops dropFunc, model costModel, s *Scratch, dst []Move) []Move {
	s.pool = s.pool[:0]
	cur := swapPrepare(b, g, u, drops, model, s)
	leaf := s.leafSums(b, g, u, drops, model)
	if leaf != nil {
		s.leafScores(g.N(), leaf)
	}
	prune := leaf == nil && model == modelSwap && s.oracle != nil
	lmPrune := leaf == nil && model == modelSwap && s.oracle == nil && s.lmk != nil &&
		s.lmArm(u, b.kind)
	// A leaf's scores come from the aggregates; at scale the targets that
	// survive the landmark bound are scored up front through the batched
	// kernel. The emission loop below then only looks scores up, in
	// unchanged order.
	scored := leaf != nil || lmPrune && s.lmBatchScores(g, u, b.kind, cur.Dist, true)
	nt := len(s.buf2)
	for xi, x := range s.buf {
		halves := deltaSwapHalves(g, u, x, model)
		for yi, y := range s.buf2 {
			if prune {
				// A target whose oracle bound cannot beat the current
				// cost yields no improving swap for any drop; for SUM the
				// pair bound also folds in this drop's penalty.
				bound, _ := s.deltaTargetBound(u, y, b.kind, cur.Dist)
				if bound >= cur.Dist {
					continue
				}
				if b.kind == Sum && s.deltaPairBoundSum(u, x, y, bound) >= cur.Dist {
					continue
				}
			}
			// The landmark bound likewise holds for every drop.
			if lmPrune && s.lmTargetBound(y, b.kind) >= cur.Dist {
				continue
			}
			var dist int64
			if scored {
				dist = s.score[xi*nt+yi]
			} else {
				dist = s.deltaSwapDist(g, u, x, y, b.kind)
			}
			c := Cost{Halves: halves, Dist: dist}
			if c.Less(cur, b.alpha) {
				dst = append(dst, Move{Agent: u, Drop: s.single(x), Add: s.single(y)})
			}
		}
	}
	return dst
}

// swapBest returns the best strictly improving swaps of u and their cost.
// Like swapScan, the returned moves' Drop/Add slices are pooled in s.
func swapBest(b *base, g graph.Store, u int, drops dropFunc, model costModel, s *Scratch, dst []Move) ([]Move, Cost) {
	s.pool = s.pool[:0]
	cur := swapPrepare(b, g, u, drops, model, s)
	best := cur
	start := len(dst)
	leaf := s.leafSums(b, g, u, drops, model)
	if leaf != nil {
		s.leafScores(g.N(), leaf)
	}
	prune := leaf == nil && model == modelSwap && s.oracle != nil
	lmPrune := leaf == nil && model == modelSwap && s.oracle == nil && s.lmk != nil &&
		s.lmArm(u, b.kind)
	// The running best only descends from cur, so the non-strict memo set
	// (bound <= cur) covers every pair the emission loop keeps.
	scored := leaf != nil || lmPrune && s.lmBatchScores(g, u, b.kind, cur.Dist, false)
	nt := len(s.buf2)
	for xi, x := range s.buf {
		halves := deltaSwapHalves(g, u, x, model)
		for yi, y := range s.buf2 {
			if prune {
				// A target bounded strictly above the running best can
				// neither improve on it nor tie it; for SUM the pair
				// bound also folds in this drop's penalty.
				bound, _ := s.deltaTargetBound(u, y, b.kind, best.Dist+1)
				if bound > best.Dist {
					continue
				}
				if b.kind == Sum && s.deltaPairBoundSum(u, x, y, bound) > best.Dist {
					continue
				}
			}
			// A landmark bound strictly above the running best can
			// neither improve on it nor tie it, whatever the drop.
			if lmPrune && s.lmTargetBound(y, b.kind) > best.Dist {
				continue
			}
			var dist int64
			if scored {
				dist = s.score[xi*nt+yi]
			} else {
				dist = s.deltaSwapDist(g, u, x, y, b.kind)
			}
			c := Cost{Halves: halves, Dist: dist}
			switch c.Cmp(best, b.alpha) {
			case -1:
				dst = dst[:start]
				dst = append(dst, Move{Agent: u, Drop: s.single(x), Add: s.single(y)})
				best = c
			case 0:
				if best.Less(cur, b.alpha) {
					dst = append(dst, Move{Agent: u, Drop: s.single(x), Add: s.single(y)})
				}
			}
		}
	}
	if !best.Less(cur, b.alpha) {
		return dst[:start], cur
	}
	return dst, best
}

var (
	_ Game = (*Swap)(nil)
	_ Game = (*AsymSwap)(nil)
)
