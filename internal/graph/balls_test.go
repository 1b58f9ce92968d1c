package graph

import (
	"fmt"
	"math/bits"
	"testing"
)

// The mover's aggregate-only searches on one-word networks of ballMinN or
// more vertices come from balls of G−u cached in the scratch, keyed on the
// graph's identity, its AdjVersion and the mover. These tests reuse one
// scratch across every way the key can change — movers, mutations of one
// graph, two graphs in turn — and require every answer to equal apply →
// BFS → undo on a clone.

// checkMover compares the cached mover search of (u, drop, add) on g,
// through s, with BFS on a clone of g that has the edit applied.
func checkMover(t *testing.T, g *Graph, s *BFSScratch, u int, drop, add []int) {
	t.Helper()
	ref := g.Clone()
	applyEdit(ref, u, drop, add)
	want := ref.BFS(u, nil, NewBFSScratch(g.N()))
	if got := g.BFSEdited(u, u, drop, add, nil, s); got != want {
		t.Fatalf("n=%d u=%d drop=%v add=%v on %v: cached mover search %+v, applied %+v",
			g.N(), u, drop, add, g, got, want)
	}
}

// moverEdits lists edits of u that a scan offers — every single drop,
// swap and addition — plus a few multi-edge drop/add edits.
func moverEdits(g *Graph, u int, r *lcg) (drops, adds [][]int) {
	nbrs, targets := g.NeighborList(u, nil), []int{}
	for v := 0; v < g.N(); v++ {
		if v != u && !g.HasEdge(u, v) {
			targets = append(targets, v)
		}
	}
	for _, x := range append([]int{-1}, nbrs...) {
		for _, y := range append([]int{-1}, targets...) {
			var d, a []int
			if x >= 0 {
				d = []int{x}
			}
			if y >= 0 {
				a = []int{y}
			}
			drops, adds = append(drops, d), append(adds, a)
		}
	}
	for i := 0; i < 4; i++ {
		d, a := randomEditOf(g, u, r)
		drops, adds = append(drops, d), append(adds, a)
	}
	return drops, adds
}

// randomEditOf is randomEdit with the mover fixed.
func randomEditOf(g *Graph, u int, r *lcg) (drop, add []int) {
	for v := 0; v < g.N(); v++ {
		switch {
		case v == u:
		case g.HasEdge(u, v):
			if r.intn(2) == 0 {
				drop = append(drop, v)
			}
		case r.intn(3) == 0:
			add = append(add, v)
		}
	}
	return drop, add
}

// checkAllEdits runs every edit of moverEdits for u through s.
func checkAllEdits(t *testing.T, g *Graph, s *BFSScratch, u int, r *lcg) {
	t.Helper()
	drops, adds := moverEdits(g, u, r)
	for i := range drops {
		checkMover(t, g, s, u, drops[i], adds[i])
	}
}

func TestBallCacheAcrossMovers(t *testing.T) {
	for _, n := range []int{ballMinN, 33, 64} {
		r := lcg(int64(n))
		g, _ := randomPair(n, n/2, &r)
		s := NewBFSScratch(n)
		// Every mover in turn, then movers revisited out of order, with
		// scans of other sources and plain searches in between.
		for u := 0; u < n; u++ {
			checkAllEdits(t, g, s, u, &r)
		}
		for i := 0; i < 3*n; i++ {
			u := r.intn(n)
			g.BFS((u+1)%n, nil, s)
			drop, add := randomEditOf(g, u, &r)
			checkMover(t, g, s, u, drop, add)
		}
	}
}

func TestBallCacheAcrossMutations(t *testing.T) {
	for _, n := range []int{ballMinN, 47, 64} {
		r := lcg(int64(3 * n))
		g, _ := randomPair(n, n, &r)
		other, _ := randomPair(n, n/3, &r)
		s := NewBFSScratch(n)
		mutations := []struct {
			name string
			do   func(u int)
		}{
			{"AddEdge", func(u int) {
				for v := 0; v < n; v++ {
					if v != u && !g.HasEdge(u, v) {
						g.AddEdge(v, u)
						return
					}
				}
			}},
			{"RemoveEdge", func(u int) {
				// An edge away from u changes G−u itself.
				for v := 0; v < n; v++ {
					if nb := g.NeighborList(v, nil); v != u && len(nb) > 0 && nb[len(nb)-1] != u {
						g.RemoveEdge(v, nb[len(nb)-1])
						return
					}
				}
			}},
			{"CopyFrom", func(int) { g.CopyFrom(other) }},
			{"LoadAdjRows", func(int) { g.LoadAdjRows(other.AppendAdjRows(nil)) }},
			{"LoadOwnedRows", func(int) {
				alt := other.Clone()
				alt.RemoveEdge(alt.Edges()[0].U, alt.Edges()[0].V)
				g.LoadOwnedRows(alt.AppendOwnedRows(nil))
			}},
		}
		for round := 0; round < 2; round++ {
			for _, m := range mutations {
				u := r.intn(n)
				checkAllEdits(t, g, s, u, &r)
				m.do(u)
				if err := g.Validate(); err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				// The same mover right after the mutation: the cache
				// holds this graph and mover at the previous version.
				checkAllEdits(t, g, s, u, &r)
			}
			// Start the next round from a different network.
			other, _ = randomPair(n, n/2+round, &r)
		}
	}
}

func TestBallCacheAcrossGraphs(t *testing.T) {
	for _, n := range []int{ballMinN, 40, 64} {
		// Two copies built by the same mutations, then each missing a
		// different edge away from the mover 0: the graphs differ at the
		// same AdjVersion, so only the graph's identity tells their balls
		// apart.
		ra, rb := lcg(int64(5*n)), lcg(int64(5*n))
		a, _ := randomPair(n, n/2, &ra)
		b, _ := randomPair(n, n/2, &rb)
		var away []Edge
		for _, e := range a.Edges() {
			if e.U != 0 && e.V != 0 {
				away = append(away, e)
			}
		}
		a.RemoveEdge(away[0].U, away[0].V)
		b.RemoveEdge(away[len(away)-1].U, away[len(away)-1].V)
		if a.AdjVersion() != b.AdjVersion() || a.Equal(b) {
			t.Fatalf("n=%d: want distinct graphs at one version, got versions %d and %d", n, a.AdjVersion(), b.AdjVersion())
		}
		r := lcg(int64(n))
		s := NewBFSScratch(n)
		for i := 0; i < 4*n; i++ {
			u := 0
			if i%3 == 2 {
				u = r.intn(n)
			}
			for _, g := range []*Graph{a, b} {
				drop, add := randomEditOf(g, u, &r)
				checkMover(t, g, s, u, drop, add)
			}
		}
	}
}

func TestBallCacheDisconnected(t *testing.T) {
	for _, n := range []int{ballMinN, 50, 64} {
		r := lcg(int64(7 * n))
		g := New(n)
		// Three random trees on blocks of ids, and isolated vertices at
		// the end; edits join and split components.
		blocks := []int{0, n / 3, 2 * n / 3, n - 3}
		for b := 0; b+1 < len(blocks); b++ {
			for v := blocks[b] + 1; v < blocks[b+1]; v++ {
				g.AddEdge(v, blocks[b]+r.intn(v-blocks[b]))
			}
		}
		s := NewBFSScratch(n)
		for _, u := range []int{0, 1, n / 2, n - 4, n - 1} {
			checkAllEdits(t, g, s, u, &r)
		}
		// The empty network: every mover is isolated in G−u.
		e := New(n)
		checkAllEdits(t, e, s, n-1, &r)
		checkMover(t, e, s, 0, nil, nil)
	}
}

func TestBallCacheMultiEdgeEdits(t *testing.T) {
	for _, n := range []int{ballMinN, 37, 64} {
		r := lcg(int64(11 * n))
		g, _ := randomPair(n, 2*n, &r)
		s := NewBFSScratch(n)
		for trial := 0; trial < 6*n; trial++ {
			u := r.intn(4) // few movers, many edits each: warm caches
			drop, add := randomEditOf(g, u, &r)
			checkMover(t, g, s, u, drop, add)
			// Everything dropped, everything added.
			all := g.NeighborList(u, nil)
			checkMover(t, g, s, u, all, add)
			checkMover(t, g, s, u, drop, nil)
		}
	}
}

// BenchmarkMoverScan is the scan-shaped workload of the cached mover
// search: each op takes the next mover of a random connected network with
// about 1.5n edges and scores all of its (drop, target) pairs. "balls"
// runs the ball path one candidate at a time (its build included,
// whatever the size gate), "batched" the production call, one
// BFSEditedTargets per drop (the ball path from ballMinN on, one-word
// searches below), "plain" the one-word search of every edited network,
// "build" only the ball build. ns/candidate is the op time over the
// pairs.
func BenchmarkMoverScan(b *testing.B) {
	for _, n := range []int{10, 16, 20, 24, 32, 50, 64} {
		r := lcg(int64(n))
		g, _ := randomPair(n, n/2, &r)
		type pair struct{ drop, add []int }
		scans := make([][]pair, n)
		targets := make([][]int, n)
		cands := 0
		for u := range scans {
			for y := 0; y < n; y++ {
				if y != u && !g.HasEdge(u, y) {
					targets[u] = append(targets[u], y)
				}
			}
			for _, x := range g.NeighborList(u, nil) {
				for _, y := range targets[u] {
					scans[u] = append(scans[u], pair{[]int{x}, []int{y}})
				}
			}
			cands += len(scans[u])
		}
		res := make([]BFSResult, n)
		for _, mode := range []string{"balls", "batched", "plain", "build"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				s := NewBFSScratch(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := i % n
					switch mode {
					case "balls":
						for _, p := range scans[u] {
							searchSink = s.balls.search(g, u, 1<<uint(p.drop[0]), p.add)
						}
					case "batched":
						for x := g.word[u]; x != 0; x &= x - 1 {
							drop := []int{bits.TrailingZeros64(x)}
							g.BFSEditedTargets(u, drop, targets[u], res[:len(targets[u])], s)
						}
						searchSink = res[0]
					case "plain":
						for _, p := range scans[u] {
							ed := wordEdit{u: u, row: g.word[u]&^(1<<uint(p.drop[0])) | 1<<uint(p.add[0]),
								touched: 1<<uint(u) | 1<<uint(p.drop[0]) | 1<<uint(p.add[0])}
							searchSink = g.bfsWord(u, 0, ed, nil)
						}
					case "build":
						s.balls.build(g, u)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)*float64(n)/float64(cands), "ns/candidate")
			})
		}
	}
}
