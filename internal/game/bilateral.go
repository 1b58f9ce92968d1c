package game

import (
	"fmt"

	"ncg/internal/graph"
)

// Bilateral is the bilateral equal-split Buy Game of Corbo & Parkes
// (PODC'05) as analyzed in Section 5 of the paper: a strategy of agent u is
// her entire neighbour set, each incident edge costs alpha/2 to each
// endpoint, edge creation needs bilateral consent, and edge deletion is
// unilateral.
//
// A strategy change of u from N(u) to S is feasible iff no newly connected
// agent's cost increases: c_G(v) >= c_G'(v) for all v in S \ N(u). Only
// feasible changes are enumerated. Like Buy, the strategy space is
// exponential and enumerated exhaustively; intended for the paper's
// constructions (n <= 11).
type Bilateral struct {
	base
}

// NewBilateral returns the bilateral equal-split BG.
func NewBilateral(kind DistKind, alpha Alpha) *Bilateral {
	return &Bilateral{base{kind: kind, alpha: alpha}}
}

func (bl *Bilateral) Name() string {
	return bl.kind.String() + "-bilateral-BG"
}

// OwnershipMatters is false: bilateral states are edge sets; the internal
// ownership function is bookkeeping only.
func (bl *Bilateral) OwnershipMatters() bool { return false }

// Cost returns u's cost: alpha/2 per incident edge plus distance cost.
func (bl *Bilateral) Cost(g graph.Store, u int, s *Scratch) Cost {
	return agentCost(g, u, bl.kind, modelBilateral, s)
}

// scan is the one enumerator of u's feasible strategy changes: it offers
// f each with u's resulting cost.
func (bl *Bilateral) scan(g graph.Store, u int, f *fold) {
	s := f.s
	f.begin(agentCost(g, u, bl.kind, modelBilateral, s))
	n := g.N()
	var cands []int
	for v := 0; v < n; v++ {
		if v != u && bl.allowed(u, v) {
			cands = append(cands, v)
		}
	}
	if len(cands) > MaxStrategyBits {
		panic(fmt.Sprintf("game: bilateral strategy space 2^%d exceeds limit 2^%d", len(cands), MaxStrategyBits))
	}
	// Pre-move costs of every potential new neighbour, for consent checks.
	preCost := make([]Cost, n)
	for _, v := range cands {
		preCost[v] = agentCost(g, v, bl.kind, modelBilateral, s)
	}
	curMask := uint32(0)
	for i, v := range cands {
		if g.HasEdge(u, v) {
			curMask |= 1 << uint(i)
		}
	}
	var drop, add []int
masks:
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
		m := Move{Agent: u, Drop: drop, Add: add}
		for _, v := range add {
			if !bl.consents(g, m, v, preCost[v], s) {
				continue masks
			}
		}
		if !f.offer(movedCost(g, u, m, bl.kind, modelBilateral, s), drop, add) {
			return
		}
	}
}

// consents reports whether v, a new neighbour under strategy change m,
// agrees to it: v's cost in the network m would produce does not exceed
// pre, v's current cost.
func (bl *Bilateral) consents(g graph.Store, m Move, v int, pre Cost, s *Scratch) bool {
	return !pre.Less(movedCost(g, v, m, bl.kind, modelBilateral, s), bl.alpha)
}

// Blocks reports whether agent u's strategy change m would be blocked, and
// by whom: the returned list holds every new neighbour whose cost strictly
// increases. An empty list means the move is feasible.
func (bl *Bilateral) Blocks(g graph.Store, m Move, s *Scratch) []int {
	var blockers []int
	for _, v := range m.Add {
		if !bl.consents(g, m, v, agentCost(g, v, bl.kind, modelBilateral, s), s) {
			blockers = append(blockers, v)
		}
	}
	return blockers
}

func (bl *Bilateral) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return s.probe(bl.scan, g, u, bl.alpha)
}

func (bl *Bilateral) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return s.bestMoves(bl.scan, g, u, bl.alpha, dst)
}

func (bl *Bilateral) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return s.improving(bl.scan, g, u, bl.alpha, dst)
}

var _ Game = (*Bilateral)(nil)
