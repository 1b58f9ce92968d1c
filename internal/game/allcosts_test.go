package game

import (
	"fmt"
	"math/rand"
	"testing"

	"ncg/internal/gen"
	"ncg/internal/graph"
)

// TestAllCostsMatchesPerAgent pins the batched cost pass to per-agent
// gm.Cost across all five games, empty and disconnected graphs included.
func TestAllCostsMatchesPerAgent(t *testing.T) {
	games := []Game{
		NewSwap(Sum),
		NewAsymSwap(Max),
		NewGreedyBuy(Sum, NewAlpha(10, 4)),
		NewBuy(Max, AlphaInt(2)),
		NewBilateral(Sum, NewAlpha(3, 2)),
	}
	r := rand.New(rand.NewSource(5))
	graphs := []*graph.Graph{graph.New(0), graph.New(1), graph.New(6), graph.Path(9)}
	g := graph.New(12)
	for v := 1; v < 10; v++ { // two isolated vertices stay disconnected
		g.AddEdge(v, r.Intn(v))
	}
	graphs = append(graphs, g)
	for _, gm := range games {
		for gi, gr := range graphs {
			s := NewScratch(gr.N())
			got := AllCosts(gr, gm, s, nil)
			if len(got) != gr.N() {
				t.Fatalf("%s graph %d: %d costs, want %d", gm.Name(), gi, len(got), gr.N())
			}
			var wantHalves, wantDist int64
			for u := 0; u < gr.N(); u++ {
				want := gm.Cost(gr, u, s)
				if got[u] != want {
					t.Fatalf("%s graph %d agent %d: %v, want %v", gm.Name(), gi, u, got[u], want)
				}
				wantHalves += want.Halves
				wantDist += want.Dist
			}
			// The fold form must agree with the materialized slice.
			halves, dist := TotalCost(gr, gm, s)
			if halves != wantHalves || dist != wantDist {
				t.Fatalf("%s graph %d: TotalCost = (%d, %d), want (%d, %d)",
					gm.Name(), gi, halves, dist, wantHalves, wantDist)
			}
		}
	}
}

// TestFoldLeafSwapMatchesFreshPass: on random trees and sparse networks, on
// both backends, a memo warmed by AllCosts and carried across random leaf
// swaps by FoldLeafSwap must serve exactly the SUM costs of a fresh pass,
// and MAX reads through it must rerun the pass (a folded memo's
// eccentricities are stale). Non-leaf swaps, drop-only and add-only moves
// and moves on disconnected networks must decline the fold.
func TestFoldLeafSwapMatchesFreshPass(t *testing.T) {
	sum, mx := NewSwap(Sum), NewSwap(Max)
	for trial := 0; trial < 16; trial++ {
		n := 6 + trial*5
		r := rand.New(rand.NewSource(int64(trial)))
		var dense *graph.Graph
		if trial%2 == 0 {
			dense = gen.RandomTree(n, r)
		} else {
			var err error
			if dense, err = gen.SparseNetwork(n, n/6, r); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range []graph.Store{dense, graph.NewSparseFrom(dense)} {
			checkFoldScript(t, g, sum, mx, rand.New(rand.NewSource(int64(100+trial))))
		}
	}
}

// checkFoldScript plays 60 random moves on g, folding each into s's memo,
// and compares the memo's reads with fresh scratches after every move.
func checkFoldScript(t *testing.T, g graph.Store, sum, mx Game, r *rand.Rand) {
	t.Helper()
	n := g.N()
	s := NewScratch(n)
	AllCosts(g, sum, s, nil)
	folds := 0
	var nbrs []int
	for step := 0; step < 60; step++ {
		leaf := -1
		for _, u := range r.Perm(n) {
			if g.Degree(u) == 1 {
				leaf = u
				break
			}
		}
		u := r.Intn(n)
		op := r.Intn(10)
		if op < 6 && leaf >= 0 {
			u = leaf
		}
		nbrs = g.NeighborList(u, nbrs[:0])
		// other draws an agent u may add an edge to; only called while u
		// has fewer than n-1 neighbors.
		other := func() int {
			w := r.Intn(n)
			for w == u || g.HasEdge(u, w) {
				w = r.Intn(n)
			}
			return w
		}
		var m Move
		switch {
		case !g.Connected() && r.Intn(2) == 0:
			// Reconnect, so later leaf swaps can fold again.
			dist := make([]int32, n)
			g.BFS(0, dist, s.bfs)
			for x := range dist {
				if dist[x] == graph.Unreachable {
					m = Move{Agent: x, Add: []int{0}}
					break
				}
			}
		case len(nbrs) == 0:
			m = Move{Agent: u, Add: []int{other()}}
		case op == 8 || len(nbrs) == n-1:
			// Drop only; an agent adjacent to all others has no edge to add.
			m = Move{Agent: u, Drop: []int{nbrs[r.Intn(len(nbrs))]}}
		case op < 8:
			m = Move{Agent: u, Drop: []int{nbrs[r.Intn(len(nbrs))]}, Add: []int{other()}}
		default:
			m = Move{Agent: u, Add: []int{other()}}
		}
		want := m.Kind() == KindSwap && g.Degree(m.Agent) == 1 && g.Connected()
		pre := g.AdjVersion()
		ApplyMove(g, m)
		if got := s.FoldLeafSwap(g, pre, m); got != want {
			t.Fatalf("%T n=%d step %d (%v): fold = %v, want %v", g, n, step, m, got, want)
		}
		if want {
			folds++
		}
		where := fmt.Sprintf("%T n=%d step %d (%v)", g, n, step, m)
		if step%2 == 0 {
			// MAX first: a folded memo must not serve its eccentricities.
			sameCosts(t, where, AllCosts(g, mx, s, nil), AllCosts(g, mx, NewScratch(n), nil))
		}
		sameCosts(t, where, AllCosts(g, sum, s, nil), AllCosts(g, sum, NewScratch(n), nil))
	}
	if folds == 0 {
		t.Fatalf("%T n=%d: the script folded no move", g, n)
	}
}

func sameCosts(t *testing.T, where string, got, want []Cost) {
	t.Helper()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s: memo cost of %d = %v, fresh pass %v", where, u, got[u], want[u])
		}
	}
}
