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
// Scans drawn from their own stream (see scanBeforeFold) come before each
// fold, so the moves are those of the script alone.
func checkFoldScript(t *testing.T, g graph.Store, sum, mx Game, r *rand.Rand) {
	t.Helper()
	n := g.N()
	s := NewScratch(n)
	AllCosts(g, sum, s, nil)
	scans := rand.New(rand.NewSource(r.Int63()))
	folds := 0
	for step := 0; step < 60; step++ {
		m := foldScriptMove(g, r)
		where := fmt.Sprintf("%T n=%d step %d (%v)", g, n, step, m)
		scanBeforeFold(g, s, m, scans)
		if foldMove(t, where, g, s, m) {
			folds++
		}
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

// foldScriptMove draws the next move of a fold script on g (n >= 3): a
// leaf's swap six times in ten when g has a leaf, otherwise a random
// agent's swap, drop or addition; a disconnected network is reconnected
// every other move, so later leaf swaps can fold again.
func foldScriptMove(g graph.Store, r *rand.Rand) Move {
	n := g.N()
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
	nbrs := g.NeighborList(u, nil)
	// other draws an agent u may add an edge to; only called while u
	// has fewer than n-1 neighbors.
	other := func() int {
		w := r.Intn(n)
		for w == u || g.HasEdge(u, w) {
			w = r.Intn(n)
		}
		return w
	}
	switch {
	case !g.Connected() && r.Intn(2) == 0:
		dist := make([]int32, n)
		g.BFS(0, dist, graph.NewBFSScratch(n))
		for x := range dist {
			if dist[x] == graph.Unreachable {
				return Move{Agent: x, Add: []int{0}}
			}
		}
	case len(nbrs) == 0:
		return Move{Agent: u, Add: []int{other()}}
	case op == 8 || len(nbrs) == n-1:
		// Drop only; an agent adjacent to all others has no edge to add.
		return Move{Agent: u, Drop: []int{nbrs[r.Intn(len(nbrs))]}}
	case op < 8:
		return Move{Agent: u, Drop: []int{nbrs[r.Intn(len(nbrs))]}, Add: []int{other()}}
	}
	return Move{Agent: u, Add: []int{other()}}
}

// scanBeforeFold runs, on s, the scans a dynamics step may make before
// committing m: the mover's probe and best-move scan under SUM, its scan
// under MAX, another agent's probe, or none. FoldLeafSwap then meets the
// delta preparation kept for the mover at this version (warm, possibly
// from the other distance kind), for another mover, or from an earlier
// version (stale, when an earlier step scanned the same agent). It draws
// from r alone.
func scanBeforeFold(g graph.Store, s *Scratch, m Move, r *rand.Rand) {
	switch r.Intn(4) {
	case 0:
		NewSwap(Sum).HasImproving(g, m.Agent, s)
		NewSwap(Sum).BestMoves(g, m.Agent, s, nil)
	case 1:
		NewSwap(Max).BestMoves(g, m.Agent, s, nil)
	case 2:
		NewSwap(Sum).HasImproving(g, (m.Agent+1)%g.N(), s)
	}
}

// foldMove applies m to g and offers it to FoldLeafSwap on s's memo, which
// must fold exactly the swaps of a leaf in a connected network. It reports
// whether the memo folded.
func foldMove(t *testing.T, where string, g graph.Store, s *Scratch, m Move) bool {
	t.Helper()
	want := m.Kind() == KindSwap && g.Degree(m.Agent) == 1 && g.Connected()
	pre := g.AdjVersion()
	ApplyMove(g, m)
	if got := s.FoldLeafSwap(g, pre, m); got != want {
		t.Fatalf("%s: fold = %v, want %v", where, got, want)
	}
	return want
}

// bfsCounter counts the single-source searches run over the backend it
// embeds.
type bfsCounter struct {
	graph.Store
	searches int
}

func (c *bfsCounter) BFS(src int, dist []int32, s *graph.BFSScratch) graph.BFSResult {
	c.searches++
	return c.Store.BFS(src, dist, s)
}

// TestFoldLeafSwapReadsKeptRow: a leaf swap folded right after scans of its
// mover on the same version — a probe and a best-move scan under SUM, or a
// scan under MAX — reads the dropped neighbour's row from the scans' kept
// preparation and searches only the new neighbour's. A preparation kept
// for another mover, or for the same mover before another leaf moved next
// to its neighbour, is not read: the fold searches both rows. Every fold
// must leave the exact SUM costs, on both backends.
func TestFoldLeafSwapReadsKeptRow(t *testing.T) {
	sum, mx := NewSwap(Sum), NewSwap(Max)
	for trial := 0; trial < 6; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		n := 12 + 9*trial
		dense := gen.RandomTree(n, r)
		for _, store := range []graph.Store{dense.Clone(), graph.NewSparseFrom(dense)} {
			g := &bfsCounter{Store: store}
			s := NewScratch(n)
			AllCosts(g, sum, s, nil)
			// fold swaps leaf u's edge for one to w, after scans, and
			// requires want searches and exact costs.
			fold := func(what string, u, w int, scans func(), want int) {
				t.Helper()
				v := g.NeighborList(u, nil)[0]
				scans()
				before := g.searches
				m := Move{Agent: u, Drop: []int{v}, Add: []int{w}}
				where := fmt.Sprintf("%T n=%d %s (%v)", store, n, what, m)
				foldMove(t, where, g, s, m)
				if got := g.searches - before; got != want {
					t.Fatalf("%s: the fold ran %d single-source searches, want %d", where, got, want)
				}
				sameCosts(t, where, AllCosts(g, sum, s, nil), AllCosts(g, sum, NewScratch(n), nil))
			}
			// leaves returns two leaves with different neighbours, and
			// a vertex the first can move to.
			leaves := func() (u, x, w int) {
				var ls []int
				for _, y := range r.Perm(n) {
					if g.Degree(y) == 1 {
						ls = append(ls, y)
					}
				}
				for _, x := range ls[1:] {
					if g.NeighborList(x, nil)[0] != g.NeighborList(ls[0], nil)[0] {
						u = ls[0]
						w = g.NeighborList(x, nil)[0]
						return u, x, w
					}
				}
				t.Fatalf("n=%d: no two leaves with different neighbours", n)
				return
			}
			u, _, w := leaves()
			fold("warm SUM", u, w, func() {
				sum.HasImproving(g, u, s)
				sum.BestMoves(g, u, s, nil)
			}, 1)
			u, _, w = leaves()
			fold("warm MAX", u, w, func() { mx.BestMoves(g, u, s, nil) }, 1)
			u, x, w := leaves()
			fold("another mover", u, w, func() { sum.HasImproving(g, x, s) }, 2)
			// Scan u, then move leaf x next to u's neighbour v, which
			// changes d_{G-u}(v, x); u's fold must not read the old row.
			u, x, _ = leaves()
			v := g.NeighborList(u, nil)[0]
			fold("scan, then another leaf", x, v, func() { sum.BestMoves(g, u, s, nil) }, 2)
			w = 0
			for w == u || w == v {
				w++
			}
			fold("stale", u, w, func() {}, 2)
		}
	}
}

// FuzzFoldLeafSwap carries one memo per backend across a random script of
// leaf swaps and other moves on a random near-tree (a random tree plus up
// to seven chords, 3..160 agents), offering every move to FoldLeafSwap
// after the scans of scanBeforeFold, so the fold meets the kept delta
// preparation warm, stale, from the other distance kind, or for another
// mover.
// After every move each agent's MemoCost read under SUM must equal Cost;
// reads under MAX, which rerun the pass on a folded memo, must equal Cost
// too and happen after every maxEvery-th move (1..4), so folds chain
// between them.
func FuzzFoldLeafSwap(f *testing.F) {
	f.Add(int64(1), 3, uint8(0), uint8(1), uint8(12))
	f.Add(int64(2), 12, uint8(0), uint8(3), uint8(30))
	f.Add(int64(3), 40, uint8(3), uint8(2), uint8(30))
	f.Add(int64(4), 65, uint8(7), uint8(4), uint8(24))
	f.Add(int64(5), 130, uint8(2), uint8(1), uint8(16))
	// A leaf scanned, then moved again after another agent's move with no
	// scan in between: the kept preparation is stale.
	f.Add(int64(1), 3, uint8(5), uint8(0), uint8(27))
	f.Fuzz(func(t *testing.T, seed int64, n int, chords, maxEvery, steps uint8) {
		if n < 3 || n > 160 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		dense := gen.RandomTree(n, r)
		for i := 0; i < int(chords%8); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !dense.HasEdge(u, v) {
				dense.AddEdge(u, v)
			}
		}
		sum, mx := NewSwap(Sum), NewSwap(Max)
		every := 1 + int(maxEvery%4)
		for _, g := range []graph.Store{dense.Clone(), graph.NewSparseFrom(dense)} {
			s, fresh := NewScratch(n), NewScratch(n)
			AllCosts(g, sum, s, nil)
			rs, scans := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
			for step := 0; step < int(steps%40); step++ {
				m := foldScriptMove(g, rs)
				where := fmt.Sprintf("%T n=%d step %d (%v)", g, n, step, m)
				scanBeforeFold(g, s, m, scans)
				foldMove(t, where, g, s, m)
				for u := 0; u < n; u++ {
					if got, want := MemoCost(g, sum, u, s), sum.Cost(g, u, fresh); got != want {
						t.Fatalf("%s: SUM memo cost of %d = %v, Cost %v", where, u, got, want)
					}
				}
				if (step+1)%every != 0 {
					continue
				}
				for u := 0; u < n; u++ {
					if got, want := MemoCost(g, mx, u, s), mx.Cost(g, u, fresh); got != want {
						t.Fatalf("%s: MAX memo cost of %d = %v, Cost %v", where, u, got, want)
					}
				}
			}
		}
	})
}

func sameCosts(t *testing.T, where string, got, want []Cost) {
	t.Helper()
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s: memo cost of %d = %v, fresh pass %v", where, u, got[u], want[u])
		}
	}
}
