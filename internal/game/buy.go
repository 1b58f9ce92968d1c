package game

import (
	"fmt"

	"ncg/internal/graph"
)

// Buy is the original Network Creation Game of Fabrikant et al. (PODC'03):
// a strategy of agent u is an arbitrary set of vertices u buys edges to, at
// price alpha each. Computing a best response is NP-hard, so this
// implementation enumerates all 2^|C| strategies over the candidate set C
// and is intended for the paper's small constructions (Section 4.1); it
// panics if |C| exceeds MaxStrategyBits.
//
// Strategies containing a vertex v already connected to u by an edge v owns
// ("parallel claims") are excluded from the strategy space: such strategies
// cost alpha more than their reduction while inducing the same network, so
// they are strictly dominated and their exclusion changes neither best
// responses nor the existence of improving paths.
type Buy struct {
	base
}

// MaxStrategyBits bounds the exhaustive strategy enumeration of the Buy
// Game and the bilateral game: at most 2^MaxStrategyBits strategies per
// agent are examined.
const MaxStrategyBits = 22

// NewBuy returns the Buy Game with the given distance kind and edge price.
func NewBuy(kind DistKind, alpha Alpha) *Buy {
	return &Buy{base{kind: kind, alpha: alpha}}
}

// NewBuyHost returns the Buy Game on a host graph; bought edges must be
// host edges.
func NewBuyHost(kind DistKind, alpha Alpha, host graph.Store) *Buy {
	return &Buy{base{kind: kind, alpha: alpha, host: host}}
}

func (bg *Buy) Name() string {
	return bg.kind.String() + "-BG"
}

// OwnershipMatters is true: strategies are owned-neighbour sets.
func (bg *Buy) OwnershipMatters() bool { return true }

// Cost returns u's cost: alpha per owned edge plus distance cost.
func (bg *Buy) Cost(g graph.Store, u int, s *Scratch) Cost {
	return agentCost(g, u, bg.kind, modelUnilateral, s)
}

// strategyCandidates returns the vertices that may appear in a strategy of
// u: not u, host-permitted, and not connected to u by a foreign-owned edge.
func (bg *Buy) strategyCandidates(g graph.Store, u int, dst []int) []int {
	n := g.N()
	for v := 0; v < n; v++ {
		if v == u || !bg.allowed(u, v) {
			continue
		}
		if g.HasEdge(u, v) && !g.Owns(u, v) {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// scan is the one enumerator of u's strategies: it offers f the move to
// every strategy other than the current one, with u's cost after it
// (apply, search, undo). A probe is first offered the single-edge
// additions and deletions, delta-evaluated (see delta.go) without touching
// the graph: when one of them already improves — the common case along a
// dynamics trajectory — the exponential enumeration never runs. They are a
// subset of the strategy space, so offering them twice changes no probe
// verdict.
func (bg *Buy) scan(g graph.Store, u int, f *fold) {
	s := f.s
	f.begin(agentCost(g, u, bg.kind, modelUnilateral, s))
	if f.q == probeQuery && !bg.offerSingles(g, u, f) {
		return
	}
	cands := bg.strategyCandidates(g, u, nil)
	if len(cands) > MaxStrategyBits {
		panic(fmt.Sprintf("game: Buy Game strategy space 2^%d exceeds limit 2^%d", len(cands), MaxStrategyBits))
	}
	curMask := uint32(0)
	for i, v := range cands {
		if g.Owns(u, v) {
			curMask |= 1 << uint(i)
		}
	}
	var drop, add []int
	for mask := uint32(0); mask < 1<<uint(len(cands)); mask++ {
		if mask == curMask {
			continue
		}
		drop, add = drop[:0], add[:0]
		for i, v := range cands {
			bit := uint32(1) << uint(i)
			switch {
			case curMask&bit != 0 && mask&bit == 0:
				drop = append(drop, v)
			case curMask&bit == 0 && mask&bit != 0:
				add = append(add, v)
			}
		}
		c := evalMove(g, Move{Agent: u, Drop: drop, Add: add}, bg.kind, modelUnilateral, s)
		if !f.offer(c, drop, add) {
			return
		}
	}
}

// offerSingles offers f every single-edge deletion and addition of u and
// reports whether the enumeration goes on. Single-edge additions range
// over exactly the unconnected strategy candidates (swapTargets) and
// single-edge deletions over the owned neighbours.
func (bg *Buy) offerSingles(g graph.Store, u int, f *fold) bool {
	s := f.s
	s.buf = g.OwnedList(u, s.buf[:0])
	s.buf2 = bg.swapTargets(g, u, s.buf2[:0])
	if len(s.buf) == 0 && len(s.buf2) == 0 {
		return true
	}
	s.deltaBegin(g, u)
	s.deltaInit(g, u)
	halves := f.cur.Halves
	for _, x := range s.buf {
		if !f.offer(Cost{Halves: halves - 2, Dist: s.deltaDropDist(x, bg.kind)}, []int{x}, nil) {
			return false
		}
	}
	for _, y := range s.buf2 {
		if !f.offer(Cost{Halves: halves + 2, Dist: s.deltaAddDist(g, u, y, bg.kind)}, nil, []int{y}) {
			return false
		}
	}
	return true
}

func (bg *Buy) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return s.probe(bg.scan, g, u, bg.alpha)
}

func (bg *Buy) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return s.bestMoves(bg.scan, g, u, bg.alpha, dst)
}

func (bg *Buy) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return s.improving(bg.scan, g, u, bg.alpha, dst)
}

var _ Game = (*Buy)(nil)
