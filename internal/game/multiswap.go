package game

import (
	"fmt"

	"ncg/internal/graph"
)

// Multi-swap extensions of the swap games, used by Theorem 2.16 and
// Theorem 3.3 ("the result holds even if agents are allowed to perform
// multi-swaps"): an agent replaces k >= 1 of her (owned, in the ASG)
// neighbours by k new distinct non-neighbours in a single move.
//
// Enumeration is combinatorial and intended for the paper's construction
// sizes; callers should keep degrees and n small.

// multiSwapDrops returns the edges u may multi-swap under gm, which must be
// a *Swap or *AsymSwap.
func multiSwapDrops(gm Game, g graph.Store, u int) ([]int, *base) {
	switch t := gm.(type) {
	case *Swap:
		return g.NeighborList(u, nil), &t.base
	case *AsymSwap:
		return g.OwnedList(u, nil), &t.base
	}
	panic(fmt.Sprintf("game: multi-swaps undefined for %T", gm))
}

// MultiSwapImprovingMoves returns every strictly improving multi-swap of u
// with 1 <= k <= maxK swapped edges (maxK <= 0 means no limit). Single
// swaps (k = 1) are included. Like every enumeration it resets s's move
// pool, so the moves are valid only until the next enumeration on s.
func MultiSwapImprovingMoves(gm Game, g graph.Store, u int, s *Scratch, maxK int) []Move {
	return s.improving(multiSwaps(gm, maxK), g, u, gm.Alpha(), nil)
}

// MultiSwapBest returns the multi-swaps of u achieving the minimum cost over
// all multi-swaps with at most maxK edges, together with that cost, provided
// it strictly improves; otherwise it returns (nil, current cost). The moves
// are pooled like MultiSwapImprovingMoves'.
func MultiSwapBest(gm Game, g graph.Store, u int, s *Scratch, maxK int) ([]Move, Cost) {
	return s.bestMoves(multiSwaps(gm, maxK), g, u, gm.Alpha(), nil)
}

// multiSwaps binds multiSwapScan to a game and a swap-count limit.
func multiSwaps(gm Game, maxK int) scanFunc {
	return func(g graph.Store, u int, f *fold) { multiSwapScan(gm, g, u, maxK, f) }
}

// multiSwapScan is the one enumerator of u's multi-swaps under gm: k = 1,
// 2, ... swapped edges, drop sets outermost, each set in candidate order,
// every candidate scored by apply, search, undo.
func multiSwapScan(gm Game, g graph.Store, u int, maxK int, f *fold) {
	drops, b := multiSwapDrops(gm, g, u)
	targets := b.swapTargets(g, u, nil)
	f.begin(agentCost(g, u, b.kind, modelSwap, f.s))
	limit := len(drops)
	if maxK > 0 && maxK < limit {
		limit = maxK
	}
	if limit > len(targets) {
		limit = len(targets)
	}
	dsel := make([]int, 0, limit)
	tsel := make([]int, 0, limit)

	var chooseTargets func(k, from int)
	chooseTargets = func(k, from int) {
		if len(tsel) == k {
			m := Move{Agent: u, Drop: dsel, Add: tsel}
			f.offer(evalMove(g, m, b.kind, modelSwap, f.s), dsel, tsel)
			return
		}
		for i := from; i < len(targets); i++ {
			tsel = append(tsel, targets[i])
			chooseTargets(k, i+1)
			tsel = tsel[:len(tsel)-1]
		}
	}
	var chooseDrops func(k, from int)
	chooseDrops = func(k, from int) {
		if len(dsel) == k {
			chooseTargets(k, 0)
			return
		}
		for i := from; i < len(drops); i++ {
			dsel = append(dsel, drops[i])
			chooseDrops(k, i+1)
			dsel = dsel[:len(dsel)-1]
		}
	}
	for k := 1; k <= limit; k++ {
		chooseDrops(k, 0)
	}
}
