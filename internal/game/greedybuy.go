package game

import (
	"ncg/internal/graph"
)

// GreedyBuy is the Greedy Buy Game (Lenzner, WINE'12): in one move an agent
// may buy one edge, delete one own edge, or swap one own edge. The owner
// pays alpha per owned edge. Best responses are polynomial-time computable
// by enumerating the O(n * deg) greedy moves.
type GreedyBuy struct {
	base
}

// NewGreedyBuy returns the GBG with the given distance kind and edge price.
func NewGreedyBuy(kind DistKind, alpha Alpha) *GreedyBuy {
	return &GreedyBuy{base{kind: kind, alpha: alpha}}
}

// NewGreedyBuyHost returns the GBG on a host graph: bought or swapped-in
// edges must be host edges; deletions are unrestricted.
func NewGreedyBuyHost(kind DistKind, alpha Alpha, host graph.Store) *GreedyBuy {
	return &GreedyBuy{base{kind: kind, alpha: alpha, host: host}}
}

func (gb *GreedyBuy) Name() string {
	return gb.kind.String() + "-GBG"
}

// OwnershipMatters is true: strategies are owned-neighbour sets.
func (gb *GreedyBuy) OwnershipMatters() bool { return true }

// Cost returns u's cost: alpha per owned edge plus distance cost.
func (gb *GreedyBuy) Cost(g graph.Store, u int, s *Scratch) Cost {
	return agentCost(g, u, gb.kind, modelUnilateral, s)
}

// scan is the one enumerator of u's greedy moves: it offers f the
// deletions, swaps and additions in that order (the preference order of
// Section 4.2.1). Every move is scored by the delta evaluator (see
// delta.go): one distance row of G-u per current neighbour up front, one
// per added target on demand, and sub-O(n) arithmetic per candidate; the
// graph is never mutated. With a distance oracle installed, a swap target
// whose oracle add-bound (for SUM with the drop's penalty folded in) the
// fold prunes costs no search.
func (gb *GreedyBuy) scan(g graph.Store, u int, f *fold) {
	s := f.s
	s.buf = g.OwnedList(u, s.buf[:0])
	s.buf2 = gb.swapTargets(g, u, s.buf2[:0])
	s.deltaBegin(g, u)
	s.deltaInit(g, u)
	halves := 2 * int64(g.OutDegree(u))
	f.begin(Cost{Halves: halves, Dist: s.deltaCurDist(gb.kind)})
	// Deletions.
	for _, x := range s.buf {
		if !f.offer(Cost{Halves: halves - 2, Dist: s.deltaDropDist(x, gb.kind)}, []int{x}, nil) {
			return
		}
	}
	// Swaps.
	for _, x := range s.buf {
		for _, y := range s.buf2 {
			if s.oracle != nil {
				bound, _ := s.deltaTargetBound(u, y, gb.kind, boundExact)
				if f.prunes(Cost{Halves: halves, Dist: bound}) ||
					gb.kind == Sum && f.prunes(Cost{Halves: halves, Dist: s.deltaPairBoundSum(u, x, y, bound)}) {
					continue
				}
			}
			if !f.offer(Cost{Halves: halves, Dist: s.deltaSwapDist(g, u, x, y, gb.kind)}, []int{x}, []int{y}) {
				return
			}
		}
	}
	// Additions.
	for _, y := range s.buf2 {
		if !f.offer(Cost{Halves: halves + 2, Dist: s.deltaAddDist(g, u, y, gb.kind)}, nil, []int{y}) {
			return
		}
	}
}

func (gb *GreedyBuy) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return s.probe(gb.scan, g, u, gb.alpha)
}

func (gb *GreedyBuy) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return s.bestMoves(gb.scan, g, u, gb.alpha, dst)
}

func (gb *GreedyBuy) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return s.improving(gb.scan, g, u, gb.alpha, dst)
}

var _ Game = (*GreedyBuy)(nil)
