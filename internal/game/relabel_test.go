package game

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncg/internal/graph"
)

// relabel returns π(G): the network with every vertex v renamed perm[v],
// each edge keeping its owner.
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(perm[e.U], perm[e.V])
	}
	return h
}

// relabeledMoves maps every move through perm and renders the result as a
// sorted set of canonical strings, so that sets can be compared whatever
// order the labels gave the enumeration.
func relabeledMoves(ms []Move, perm []int) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		p := Move{Agent: perm[m.Agent]}
		for _, x := range m.Drop {
			p.Drop = append(p.Drop, perm[x])
		}
		for _, y := range m.Add {
			p.Add = append(p.Add, perm[y])
		}
		slices.Sort(p.Drop)
		slices.Sort(p.Add)
		out[i] = p.String()
	}
	slices.Sort(out)
	return out
}

// TestRelabelingCommutesWithBestResponse is the vertex-relabeling
// metamorphic test: renaming the agents by a random permutation π must
// rename their best responses. For SG, ASG and GBG under SUM and MAX, the
// game routed the way the dynamics runner routes it (PreferNaiveScan), and
// every checked agent u, BestMoves of π(u) in π(G) must be π applied to
// u's best-move set in G at the same cost, and HasImproving and the
// improving-move sets must agree. The sizes straddle the ball gate of the
// mover's searches and the one-word limit of the routing, so a bit
// position slip in a search kernel shows up as a failure. G and π(G) are
// always routed alike, so this checks that each route commutes with
// relabeling; TestDeltaMatchesNaiveScans and FuzzBestResponse compare the
// naive scans with the delta scans.
func TestRelabelingCommutesWithBestResponse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	games := func() []Game {
		return []Game{
			NewSwap(Sum), NewSwap(Max), NewAsymSwap(Sum), NewAsymSwap(Max),
			NewGreedyBuy(Sum, NewAlpha(5, 2)), NewGreedyBuy(Max, NewAlpha(3, 2)),
		}
	}
	for _, n := range []int{10, 20, 40, 64, 65, 80} {
		for net := 0; net < 2; net++ {
			g := randomDeltaGraph(n, r)
			perm := r.Perm(n)
			h := relabel(g, perm)
			// One scratch serves both networks in turn, so cached searches
			// must tell them apart.
			s := NewScratch(n)
			for _, gm := range games() {
				rg, rh := gm, gm
				if PreferNaiveScan(gm, g) {
					rg = Naive(gm)
				}
				if PreferNaiveScan(gm, h) {
					rh = Naive(gm)
				}
				for u := 0; u < n; u += 1 + n/16 {
					pu := perm[u]
					name := fmt.Sprintf("n=%d net %d %s agent %d→%d", n, net, gm.Name(), u, pu)
					bestG, costG := rg.BestMoves(g, u, s, nil)
					want := relabeledMoves(bestG, perm)
					bestH, costH := rh.BestMoves(h, pu, s, nil)
					got := relabeledMoves(bestH, identity(n))
					if costG != costH || !slices.Equal(got, want) {
						t.Fatalf("%s: BestMoves in π(G) %v at %v, π of BestMoves in G %v at %v", name, got, costH, want, costG)
					}
					impG := relabeledMoves(rg.ImprovingMoves(g, u, s, nil), perm)
					impH := relabeledMoves(rh.ImprovingMoves(h, pu, s, nil), identity(n))
					if !slices.Equal(impG, impH) {
						t.Fatalf("%s: ImprovingMoves in π(G) %v, π of ImprovingMoves in G %v", name, impH, impG)
					}
					if a, b := rg.HasImproving(g, u, s), rh.HasImproving(h, pu, s); a != b || a != (len(impG) > 0) {
						t.Fatalf("%s: HasImproving %v in G, %v in π(G), %d improving moves", name, a, b, len(impG))
					}
				}
			}
		}
	}
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}
