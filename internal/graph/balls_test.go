package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// The mover's aggregate-only searches on one-word networks of ballMinN or
// more vertices come from balls of G−u cached in the scratch, keyed on the
// graph's identity, its AdjVersion and the mover, and derived from a store
// of G's own balls that a kernel scratch may share. These tests reuse one
// scratch across every way the key can change — movers, mutations of one
// graph, two graphs in turn, all-sources passes over another graph — and
// require every answer to equal apply → BFS → undo on a clone, and every
// derived ball to equal the from-scratch build of refBalls.

// refBalls is the from-scratch build of the balls of G−u: every vertex's
// ball grows from its singleton, level by level, with u never entered. It
// returns ball[w*n+r] = B_w[r] for r < depth (zero for w = u), every ball
// complete at depth-1.
func refBalls(g *Graph, u int) (ball []uint64, depth int) {
	n := g.N()
	ball = make([]uint64, n*n)
	cur, front, next := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	ubit := uint64(1) << uint(u)
	for w := range cur {
		cur[w] = uint64(1) << uint(w) &^ ubit
		front[w] = cur[w]
		ball[w*n] = cur[w]
	}
	active := ^uint64(0) >> uint(64-n) &^ ubit
	for depth = 1; ; depth++ {
		var grew uint64
		for w, adj := range g.word {
			if w == u {
				continue
			}
			var f uint64
			for a := adj & active; a != 0; a &= a - 1 {
				f |= front[bits.TrailingZeros64(a)]
			}
			f &^= cur[w]
			next[w] = f
			if f != 0 {
				cur[w] |= f
				grew |= uint64(1) << uint(w)
			}
		}
		if grew == 0 {
			return ball, depth
		}
		for w, x := range cur {
			ball[w*n+depth] = x
		}
		active = grew
		front, next = next, front
	}
}

// checkMoverRows requires the balls s holds for the mover u of g, derived
// if the cache does not hold them, to equal refBalls at every level of
// every vertex other than u: u's bit is ignored, and a level past either
// side's depth reads as that side's last.
func checkMoverRows(t *testing.T, where string, g *Graph, s *BFSScratch, u int) {
	t.Helper()
	b := &s.balls
	b.keptFor(g, u, 0)
	want, wd := refBalls(g, u)
	n, ubit := g.N(), uint64(1)<<uint(u)
	for w := 0; w < n; w++ {
		if w == u {
			continue
		}
		for r := 0; r < max(b.depth, wd); r++ {
			if got, exp := b.ball[w*n+min(r, b.depth-1)]&^ubit, want[w*n+min(r, wd-1)]; got != exp {
				t.Fatalf("%s: n=%d mover %d (degree %d, split %d) vertex %d level %d: derived %#x (depth %d), from scratch %#x (depth %d) on %v",
					where, n, u, g.Degree(u), b.split(g.word, u), w, r, got, b.depth, exp, wd, g)
			}
		}
	}
}

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
		// A neutral mover's rows are the store's own. A pass over another
		// graph through a kernel scratch sharing the store refills it, and
		// the mover's next searches must not read that graph's balls.
		u := -1
		for v := 0; v < n && u < 0; v++ {
			if s.balls.split(a.word, v) == keepsDistances && a.Degree(v) > 0 {
				u = v
			}
		}
		if u < 0 {
			t.Fatalf("n=%d: no neutral mover in %v", n, a)
		}
		other, _ := randomPair(n, 2*n, &r)
		k := NewBatchBFSScratch(0)
		k.ShareBalls(s)
		res := make([]BFSResult, n)
		for _, pass := range []*Graph{b, other} {
			checkMover(t, a, s, u, nil, nil)
			pass.AllSourcesBFS(res, k)
			for v := 0; v < n; v++ {
				if v != u && !a.HasEdge(u, v) {
					checkMover(t, a, s, u, nil, []int{v})
				}
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
// runs the ball path one candidate at a time (its derivation included,
// whatever the size gate), "batched" the production call, one
// BFSEditedTargets per drop (the ball path from ballMinN on, one-word
// searches below), "plain" the one-word search of every edited network,
// "build" only the derivation of the mover's balls from the store of one
// network version, and "pass+build" the same after a new network version
// (an edge away from the mover removed and re-added), so that every op
// also fills the store. ns/candidate is the op time over the pairs.
func BenchmarkMoverScan(b *testing.B) {
	for _, n := range []int{10, 16, 20, 24, 32, 50, 64} {
		r := lcg(int64(n))
		g, _ := randomPair(n, n/2, &r)
		type pair struct{ drop, add []int }
		scans := make([][]pair, n)
		targets := make([][]int, n)
		away := make([]Edge, n)
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
			for _, e := range g.Edges() {
				if e.U != u && e.V != u {
					away[u] = e
				}
			}
			cands += len(scans[u])
		}
		res := make([]BFSResult, n)
		for _, mode := range []string{"balls", "batched", "plain", "build", "pass+build"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				s := NewBFSScratch(n)
				s.balls.keptFor(g, 0, 0)
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
							g.BFSEditedTargets(u, drop, targets[u], Bound{}, res[:len(targets[u])], s)
						}
						searchSink = res[0]
					case "plain":
						for _, p := range scans[u] {
							ed := wordEdit{u: u, row: g.word[u]&^(1<<uint(p.drop[0])) | 1<<uint(p.add[0]),
								touched: 1<<uint(u) | 1<<uint(p.drop[0]) | 1<<uint(p.add[0])}
							searchSink = g.bfsWord(u, 0, ed, Bound{}, nil)
						}
					case "build":
						s.balls.build(g, u)
					case "pass+build":
						e := away[u]
						g.RemoveEdge(e.U, e.V)
						g.AddEdge(e.U, e.V)
						s.balls.store.fill(g)
						s.balls.build(g, u)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)*float64(n)/float64(cands), "ns/candidate")
			})
		}
	}
}

// moverNetwork returns a one-word network on n vertices for FuzzMoverBalls:
// a shaped network (leafy trees, stars, K2s, isolated vertices, pendant
// paths, cycles and sparse parts, in a disconnected union) with, by the
// bits of joins, a clique on up to eight random vertices (bit 0) and up to
// seven random edges between distinct components (joins>>1), each of them
// a bridge whose endpoints are cut vertices once they have other
// neighbours.
func moverNetwork(n int, mix, joins uint8, r *rand.Rand) *Graph {
	g := shapedNetwork(n, mix, r)
	if joins&1 != 0 && n >= 3 {
		vs := r.Perm(n)[:3+r.Intn(min(6, n-2))]
		for i, x := range vs {
			for _, y := range vs[i+1:] {
				if !g.HasEdge(x, y) {
					g.AddEdge(x, y)
				}
			}
		}
	}
	for i := 0; i < int(joins>>1)%8; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && g.Dist(u, v) == Unreachable {
			g.AddEdge(u, v)
		}
	}
	return g
}

// cutVertex returns a vertex of g whose removal disconnects its
// component, or -1 if there is none.
func cutVertex(g *Graph, r *rand.Rand) int {
	s := NewBFSScratch(g.N())
	for _, u := range r.Perm(g.N()) {
		if nb := g.NeighborList(u, nil); len(nb) >= 2 &&
			g.BFSExcluding(nb[0], u, nil, s).Reached < g.BFS(u, nil, s).Reached-1 {
			return u
		}
	}
	return -1
}

// checkMoverSearches compares the cached searches of the mover u of g
// through s with apply → BFS → undo on ref, a clone of g: BFSEdited on a
// random edit and on every single addition, and BFSEditedTargets on the
// empty drop and on one dropped neighbour, against every target. Between
// the two, pass reads an all-sources pass of g or of other through k, a
// kernel scratch sharing s's store, or nothing.
func checkMoverSearches(t *testing.T, where string, g, other, ref *Graph, s *BFSScratch, k *BatchBFSScratch, u int, r *rand.Rand) {
	t.Helper()
	n := g.N()
	rs := NewBFSScratch(n)
	applied := func(drop, add []int) BFSResult {
		undo := applyEdit(ref, u, drop, add)
		defer undo()
		return ref.BFS(u, nil, rs)
	}
	var drop, add, targets []int
	for v := 0; v < n; v++ {
		switch {
		case v == u:
		case g.HasEdge(u, v):
			if r.Intn(2) == 0 {
				drop = append(drop, v)
			}
		default:
			targets = append(targets, v)
			if r.Intn(3) == 0 {
				add = append(add, v)
			}
		}
	}
	if got, want := g.BFSEdited(u, u, drop, add, nil, s), applied(drop, add); got != want {
		t.Fatalf("%s: n=%d u=%d drop=%v add=%v: BFSEdited %+v, applied %+v on %v", where, n, u, drop, add, got, want, g)
	}
	switch r.Intn(3) {
	case 0:
		checkAggregates(t, where, g, k)
	case 1:
		checkAggregates(t, where, other, k)
	}
	drops := [][]int{nil}
	if nb := g.NeighborList(u, nil); len(nb) > 0 {
		drops = append(drops, nb[r.Intn(len(nb)):][:1])
	}
	res, want := make([]BFSResult, len(targets)), make([]BFSResult, len(targets))
	for _, d := range drops {
		for i := range targets {
			want[i] = applied(d, targets[i:i+1])
		}
		b := randomBound(want, n, r.Uint64())
		g.BFSEditedTargets(u, d, targets, b, res, s)
		for i, y := range targets {
			if !bounded(res[i], want[i], n, b) {
				t.Fatalf("%s: n=%d u=%d drop=%v target %d bound %+v: BFSEditedTargets %+v, applied %+v on %v", where, n, u, d, y, b, res[i], want[i], g)
			}
		}
	}
}

// FuzzMoverBalls checks the derived balls of G−u against the from-scratch
// build. It decodes two one-word networks of 1..64 vertices (moverNetwork:
// leaves, stars, cycles, cliques, bridges and cut vertices, often
// disconnected), runs a random edit script on each and, before the script
// and after every edit, on each graph in turn, takes a few movers —
// random ones, the highest-degree vertex and a cut vertex — and requires
// every stored level of the mover's balls to match refBalls, and BFSEdited
// and BFSEditedTargets to match apply → BFS, with all-sources passes of
// either graph through a kernel scratch sharing the store in between. One
// BFSScratch serves both graphs, every mover and every version, so the
// derivation meets its cache warm, stale and aliased to a store another
// graph's pass refilled. The seeds sit at either side of the ball gate and
// of the one-word limit.
func FuzzMoverBalls(f *testing.F) {
	f.Add(int64(1), 1, uint8(0), uint8(0), uint8(2))
	f.Add(int64(2), 3, uint8(0), uint8(1), uint8(3))
	f.Add(int64(3), 19, uint8(0), uint8(3), uint8(6))
	f.Add(int64(4), 20, uint8(0), uint8(5), uint8(6))
	f.Add(int64(5), 20, uint8(1<<shapeCycle), uint8(7), uint8(6))
	f.Add(int64(6), 63, uint8(0), uint8(9), uint8(6))
	f.Add(int64(7), 64, uint8(0), uint8(15), uint8(6))
	f.Add(int64(8), 64, uint8(1<<shapePendantPath|1<<shapeLeafyTree), uint8(4), uint8(8))
	f.Add(int64(9), 40, uint8(1<<shapeStar|1<<shapeSparse), uint8(13), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n int, mix, joins, edits uint8) {
		if n < 1 || n > 64 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		gs := []*Graph{moverNetwork(n, mix, joins, r), moverNetwork(n, mix, joins>>4|joins<<4, r)}
		sps := []*Sparse{NewSparseFrom(gs[0]), NewSparseFrom(gs[1])}
		s := NewBFSScratch(n)
		k := NewBatchBFSScratch(0)
		k.ShareBalls(s)
		for e := 0; e <= int(edits%16); e++ {
			for i, g := range gs {
				if e > 0 {
					editBoth(g, sps[i], r)
				}
				where := fmt.Sprintf("graph %d edit %d", i, e)
				ref := g.Clone()
				hub := 0
				for v := range n {
					if g.Degree(v) > g.Degree(hub) {
						hub = v
					}
				}
				for _, u := range []int{r.Intn(n), hub, cutVertex(g, r), r.Intn(n)} {
					if u < 0 {
						continue
					}
					checkMoverSearches(t, where, g, gs[1-i], ref, s, k, u, r)
					checkMoverRows(t, where, g, s, u)
				}
			}
		}
	})
}
