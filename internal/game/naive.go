package game

import (
	"ncg/internal/graph"
)

// The naive scans enumerate every candidate strategy change and score it by
// the mover's cost in the network it would produce (see movedCost): a
// search of the edited network, which on one-word networks of about 20
// agents or more is a lookup in the mover's cached G−u balls (graph.Store's
// BFSEdited). They predate the delta evaluator of delta.go; on dense
// networks of at most 64 agents they are the faster scans and the ones
// production runs (see PreferNaiveScan), and elsewhere the delta scans'
// comparison path in equivalence tests and before/after benchmarks. The
// tests' independent truth is neither: it is the apply → Cost → undo brute
// force of FuzzBestResponse and TestExhaustiveScansMatchBruteForce, which
// applies each candidate, recomputes the mover's cost from scratch and
// undoes the move. Like the delta scans the naive scans only read the
// graph.

// evalSwap computes u's cost after swapping the edge {u,x} to {u,y}. It
// allocates nothing.
func evalSwap(b *base, g graph.Store, u, x, y int, model costModel, s *Scratch) Cost {
	return movedCost(g, u, s.oneEdit(u, x, y), b.kind, model, s)
}

// oneEdit returns the move of u that drops x (none if x < 0) and adds y
// (none if y < 0), its lists backed by s.edit.
func (s *Scratch) oneEdit(u, x, y int) Move {
	m := Move{Agent: u}
	s.edit = [2]int{x, y}
	if x >= 0 {
		m.Drop = s.edit[0:1]
	}
	if y >= 0 {
		m.Add = s.edit[1:2]
	}
	return m
}

// swapAnyNaive is the full-BFS form of the swap games' HasImproving.
func swapAnyNaive(b *base, g graph.Store, u int, drops dropFunc, s *Scratch) bool {
	cur := agentCost(g, u, b.kind, modelSwap, s)
	s.buf = drops(g, u, s.buf[:0])
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	for _, x := range s.buf {
		for _, y := range s.buf2 {
			if evalSwap(b, g, u, x, y, modelSwap, s).Less(cur, b.alpha) {
				return true
			}
		}
	}
	return false
}

// swapScanNaive is the full-BFS form of the swap games' ImprovingMoves.
func swapScanNaive(b *base, g graph.Store, u int, drops dropFunc, s *Scratch, dst []Move) []Move {
	s.pool = s.pool[:0]
	cur := agentCost(g, u, b.kind, modelSwap, s)
	s.buf = drops(g, u, s.buf[:0])
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	for _, x := range s.buf {
		for _, y := range s.buf2 {
			if evalSwap(b, g, u, x, y, modelSwap, s).Less(cur, b.alpha) {
				dst = append(dst, Move{Agent: u, Drop: s.pooled([]int{x}), Add: s.pooled([]int{y})})
			}
		}
	}
	return dst
}

// swapBestNaive is the full-BFS form of the swap games' BestMoves.
func swapBestNaive(b *base, g graph.Store, u int, drops dropFunc, s *Scratch, dst []Move) ([]Move, Cost) {
	s.pool = s.pool[:0]
	cur := agentCost(g, u, b.kind, modelSwap, s)
	best := cur
	start := len(dst)
	s.buf = drops(g, u, s.buf[:0])
	s.buf2 = b.swapTargets(g, u, s.buf2[:0])
	for _, x := range s.buf {
		for _, y := range s.buf2 {
			c := evalSwap(b, g, u, x, y, modelSwap, s)
			switch c.Cmp(best, b.alpha) {
			case -1:
				dst = dst[:start]
				dst = append(dst, Move{Agent: u, Drop: s.pooled([]int{x}), Add: s.pooled([]int{y})})
				best = c
			case 0:
				if best.Less(cur, b.alpha) {
					dst = append(dst, Move{Agent: u, Drop: s.pooled([]int{x}), Add: s.pooled([]int{y})})
				}
			}
		}
	}
	if !best.Less(cur, b.alpha) {
		return dst[:start], cur
	}
	return dst, best
}

// forEachGreedyMoveNaive is the full-BFS form of GreedyBuy.scan,
// enumerating deletions, swaps and additions in the same order.
func (gb *GreedyBuy) forEachGreedyMoveNaive(g graph.Store, u int, s *Scratch, fn func(x, y int, c Cost) bool) {
	s.buf = g.OwnedList(u, s.buf[:0])
	s.buf2 = gb.swapTargets(g, u, s.buf2[:0])
	// Deletions.
	for _, x := range s.buf {
		c := movedCost(g, u, s.oneEdit(u, x, -1), gb.kind, modelUnilateral, s)
		if !fn(x, -1, c) {
			return
		}
	}
	// Swaps.
	for _, x := range s.buf {
		for _, y := range s.buf2 {
			c := evalSwap(&gb.base, g, u, x, y, modelUnilateral, s)
			if !fn(x, y, c) {
				return
			}
		}
	}
	// Additions.
	for _, y := range s.buf2 {
		c := movedCost(g, u, s.oneEdit(u, -1, y), gb.kind, modelUnilateral, s)
		if !fn(-1, y, c) {
			return
		}
	}
}

// naiveScanner is implemented by games with a dedicated full-BFS reference
// scan; games whose regular methods already re-evaluate every candidate
// with a BFS (Buy, Bilateral) do not need one.
type naiveScanner interface {
	naiveHasImproving(g graph.Store, u int, s *Scratch) bool
	naiveBestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost)
	naiveImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move
}

func (sg *Swap) naiveHasImproving(g graph.Store, u int, s *Scratch) bool {
	return swapAnyNaive(&sg.base, g, u, sg.dropCandidates, s)
}

func (sg *Swap) naiveBestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return swapBestNaive(&sg.base, g, u, sg.dropCandidates, s, dst)
}

func (sg *Swap) naiveImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return swapScanNaive(&sg.base, g, u, sg.dropCandidates, s, dst)
}

func (ag *AsymSwap) naiveHasImproving(g graph.Store, u int, s *Scratch) bool {
	return swapAnyNaive(&ag.base, g, u, ag.dropCandidates, s)
}

func (ag *AsymSwap) naiveBestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return swapBestNaive(&ag.base, g, u, ag.dropCandidates, s, dst)
}

func (ag *AsymSwap) naiveImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return swapScanNaive(&ag.base, g, u, ag.dropCandidates, s, dst)
}

func (gb *GreedyBuy) naiveHasImproving(g graph.Store, u int, s *Scratch) bool {
	cur := agentCost(g, u, gb.kind, modelUnilateral, s)
	found := false
	gb.forEachGreedyMoveNaive(g, u, s, func(x, y int, c Cost) bool {
		if c.Less(cur, gb.alpha) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (gb *GreedyBuy) naiveBestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	s.pool = s.pool[:0]
	cur := agentCost(g, u, gb.kind, modelUnilateral, s)
	best := cur
	start := len(dst)
	gb.forEachGreedyMoveNaive(g, u, s, func(x, y int, c Cost) bool {
		switch c.Cmp(best, gb.alpha) {
		case -1:
			dst = dst[:start]
			dst = append(dst, greedyMoveNaive(u, x, y, s))
			best = c
		case 0:
			if best.Less(cur, gb.alpha) {
				dst = append(dst, greedyMoveNaive(u, x, y, s))
			}
		}
		return true
	})
	if !best.Less(cur, gb.alpha) {
		return dst[:start], cur
	}
	return dst, best
}

func (gb *GreedyBuy) naiveImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	s.pool = s.pool[:0]
	cur := agentCost(g, u, gb.kind, modelUnilateral, s)
	gb.forEachGreedyMoveNaive(g, u, s, func(x, y int, c Cost) bool {
		if c.Less(cur, gb.alpha) {
			dst = append(dst, greedyMoveNaive(u, x, y, s))
		}
		return true
	})
	return dst
}

// greedyMoveNaive builds a move with pool-backed Drop/Add slices, like the
// delta path's kept moves, so naive enumeration allocates nothing.
func greedyMoveNaive(u, x, y int, s *Scratch) Move {
	m := Move{Agent: u}
	if x >= 0 {
		m.Drop = s.pooled([]int{x})
	}
	if y >= 0 {
		m.Add = s.pooled([]int{y})
	}
	return m
}

// naiveGame wraps a game so its scans run the full-BFS reference path.
type naiveGame struct {
	Game
}

// IsNaive reports whether gm is a Naive-wrapped game.
func IsNaive(gm Game) bool {
	_, ok := gm.(naiveGame)
	return ok
}

// oneWordN is the largest dense network (graph.Graph) the naive scans take
// on every game with a reference scan: up to 64 vertices an adjacency row
// is one word, so the candidates' searches run on graph's one-word path,
// and from 20 agents on a mover's candidates are answered from its cached
// G−u balls (see graph.Store's BFSEdited), a popcount per level instead of
// a search. The evaluator's row matrices, witness buckets and bound caches
// are then constant-factor overhead. Measured on a 2-core x86-64 VM (one
// worker, 60 trials per n, best of three), the naive scans beat the delta
// scans on all seven figure series (Figs 7, 8, 11-14) at every n = 32,
// 40, 48, 56 and 64, by 1.42-5.95×; without the balls they lose on
// SUM-GBG (α = 4) at n = 32-48 and on MAX-GBG (α = 4) at n = 48-64, up
// to 1.43× slower. CSR networks (graph.Sparse) have neither path: each
// candidate is a queue search there, and the delta scans won on all seven
// series at every n = 10, 16, 20, 24, 31, 32, 40, 48, 56 and 64 (naive
// time 1.05-6.7×, 30-100 trials per n, best of three), so they never take
// this rule.
const oneWordN = 64

// PreferNaiveScan reports the regimes where the delta evaluator and the
// incremental distance cache are known to lose to the naive full-BFS path.
// Two are known. Dense networks of at most 64 agents: see oneWordN; the
// paper's n = 10..50 experiment grids lie inside this regime. And MAX
// distance cost on a tree under a swap variant, on either backend: there a
// single swap reroutes shortest paths for a constant fraction of all
// vertex pairs, so maintaining the all-pairs matrix costs more than the
// searches it saves, while the early-exiting naive probes are near optimal
// (the Theorem 2.11 path gadget is the canonical instance). Swap variants
// preserve the edge count, so a tree stays a tree for the whole run; the
// vertex count never changes; so neither pre-check needs revisiting
// mid-run. The dynamics runner, the state-graph explorer (Explore) and the
// cycle search (SearchBestResponseCycle) apply this one rule to fall back
// to the naive scans, which enumerate identical moves in identical order.
func PreferNaiveScan(gm Game, g graph.Store) bool {
	if ng, ok := gm.(naiveGame); ok {
		gm = ng.Game
	}
	if _, ok := gm.(naiveScanner); !ok {
		return false
	}
	if d, dense := g.(*graph.Graph); dense && d.N() <= oneWordN {
		return true
	}
	switch gm.(type) {
	case *Swap, *AsymSwap:
	default:
		return false
	}
	return gm.DistKind() == Max && g.M() < g.N()
}

// Naive returns gm with its best-response scans replaced by the full-BFS
// reference implementations, for equivalence tests and before/after
// benchmarks. Games without a dedicated reference scan (Buy, Bilateral,
// whose regular methods already BFS every candidate) are returned as-is.
func Naive(gm Game) Game {
	if _, ok := gm.(naiveScanner); !ok {
		return gm
	}
	return naiveGame{gm}
}

func (ng naiveGame) HasImproving(g graph.Store, u int, s *Scratch) bool {
	return ng.Game.(naiveScanner).naiveHasImproving(g, u, s)
}

func (ng naiveGame) BestMoves(g graph.Store, u int, s *Scratch, dst []Move) ([]Move, Cost) {
	return ng.Game.(naiveScanner).naiveBestMoves(g, u, s, dst)
}

func (ng naiveGame) ImprovingMoves(g graph.Store, u int, s *Scratch, dst []Move) []Move {
	return ng.Game.(naiveScanner).naiveImprovingMoves(g, u, s, dst)
}
