package paper

import (
	"math/rand"
	"slices"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
	"ncg/internal/median"
)

// TestLeafBestSwapIsOneMedian validates the median argument behind
// Corollary 3.2, which the landmark engine's leaf scoring relies on. In
// SUM-SG a leaf u that swaps its edge {u,x} to {u,y} reaches every other
// vertex through y, so its best swaps connect to the 1-medians of G-u and
// cost (n-1) plus the median's distance sum; u is happy exactly when x is
// such a median. Every leaf of random trees and random sparse graphs is
// checked with the scratch's all-sources aggregates warm, against medians
// found by exhaustive evaluation (internal/median).
func TestLeafBestSwapIsOneMedian(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	gm := game.NewSwap(game.Sum)
	leaves := 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(40)
		var g *graph.Graph
		if trial%2 == 0 {
			g = gen.RandomTree(n, r)
		} else {
			g = gen.RandomConnected(n, n-1+n/4, r)
		}
		s := game.NewScratch(n)
		game.AllCosts(g, gm, s, nil)
		for u := 0; u < n; u++ {
			if g.Degree(u) != 1 {
				continue
			}
			leaves++
			x := g.NeighborList(u, nil)[0]
			meds, sum := median.MedianOfSubgraph(g, func(v int) bool { return v != u })
			happy := slices.Contains(meds, x)
			if gm.HasImproving(g, u, s) == happy {
				t.Fatalf("trial %d leaf %d: HasImproving = %v, neighbour %d median of G-u: %v (medians %v)",
					trial, u, !happy, x, happy, meds)
			}
			moves, c := gm.BestMoves(g, u, s, nil)
			if happy {
				if len(moves) != 0 {
					t.Fatalf("trial %d leaf %d: neighbour %d is a median of G-u, yet best moves %v", trial, u, x, moves)
				}
				continue
			}
			if want := int64(n-1) + sum; c.Dist != want {
				t.Fatalf("trial %d leaf %d: best swap cost %d, want (n-1) + median sum = %d", trial, u, c.Dist, want)
			}
			if len(moves) != len(meds) {
				t.Fatalf("trial %d leaf %d: best moves %v, want swaps to the medians %v", trial, u, moves, meds)
			}
			for i, y := range meds {
				want := game.Move{Agent: u, Drop: []int{x}, Add: []int{y}}
				if !moves[i].Equal(want) {
					t.Fatalf("trial %d leaf %d: best moves %v, want swaps to the medians %v", trial, u, moves, meds)
				}
			}
		}
	}
	if leaves < 200 {
		t.Fatalf("only %d leaves checked", leaves)
	}
}
