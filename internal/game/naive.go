package game

import (
	"ncg/internal/graph"
)

// Reference implementations of the best-response scans that re-evaluate
// every candidate strategy change with a full BFS (apply, search, undo).
// They predate the delta evaluator of delta.go and are kept as the ground
// truth for equivalence tests and before/after benchmarks. Unlike the
// delta scans they mutate the graph transiently, so they must never run
// concurrently on a shared graph.

// evalSwap computes u's cost after swapping the edge {u,x} to {u,y},
// mutating g in place and restoring it (including the original owner of
// {u,x}) before returning. It allocates nothing.
func evalSwap(b *base, g graph.Store, u, x, y int, model costModel, s *Scratch) Cost {
	owner := g.Owner(u, x)
	g.RemoveEdge(u, x)
	g.AddEdge(u, y)
	c := agentCost(g, u, b.kind, model, s)
	g.RemoveEdge(u, y)
	if owner == u {
		g.AddEdge(u, x)
	} else {
		g.AddEdge(x, u)
	}
	return c
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
		g.RemoveEdge(u, x)
		c := agentCost(g, u, gb.kind, modelUnilateral, s)
		g.AddEdge(u, x)
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
		g.AddEdge(u, y)
		c := agentCost(g, u, gb.kind, modelUnilateral, s)
		g.RemoveEdge(u, y)
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

// smallNaiveN is the vertex count below which the naive early-exit scans
// beat the delta evaluator: on tiny networks a full BFS costs a handful of
// word operations, so the evaluator's row matrices, witness buckets and
// bound caches are pure constant-factor overhead.
const smallNaiveN = 32

// PreferNaiveScan reports the regimes where the delta evaluator and the
// incremental distance cache are known to lose to the naive full-BFS path.
// Two are known. Tiny networks (n < 32): see smallNaiveN; the paper's
// n = 10..50 experiment grids start inside this regime. And MAX distance
// cost on a tree under a swap variant: there a single swap reroutes
// shortest paths for a constant fraction of all vertex pairs, so
// maintaining the all-pairs matrix costs more than the searches it saves,
// while the early-exiting naive probes are near optimal (the Theorem 2.11
// path gadget is the canonical instance). Swap variants preserve the edge
// count, so a tree stays a tree for the whole run; the vertex count never
// changes; so neither pre-check needs revisiting mid-run. Process engines
// use this to fall back to the naive scans, which enumerate identical
// moves in identical order.
func PreferNaiveScan(gm Game, g graph.Store) bool {
	if ng, ok := gm.(naiveGame); ok {
		gm = ng.Game
	}
	if _, ok := gm.(naiveScanner); !ok {
		return false
	}
	if g.N() < smallNaiveN {
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
