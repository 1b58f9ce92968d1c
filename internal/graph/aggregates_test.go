package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// Component shapes of shapedNetwork, chosen to hit every case of the
// aggregate pass's leaf stripping.
const (
	shapeLeafyTree   = iota // a tree whose leaves crowd a few high-degree hubs
	shapeStar               // a centre that keeps only leaves
	shapeK2                 // two degree-1 vertices, neither stripped
	shapeIsolated           // a single vertex
	shapePendantPath        // a cycle with a path hanging off it
	shapeCycle              // no leaves at all
	shapeSparse             // a random tree plus random chords
	numShapes
)

// shapedNetwork returns a disconnected union of components on n vertices,
// each of a shape allowed by the bit mask mix (every shape when mix selects
// none), with uniformly random edge owners and vertex labels permuted so
// components interleave in index order. A leftover too small for a shape
// becomes K2s and isolated vertices.
func shapedNetwork(n int, mix uint8, r *rand.Rand) *Graph {
	var shapes []int
	for sh := 0; sh < numShapes; sh++ {
		if mix&(1<<sh) != 0 {
			shapes = append(shapes, sh)
		}
	}
	if len(shapes) == 0 {
		for sh := 0; sh < numShapes; sh++ {
			shapes = append(shapes, sh)
		}
	}
	perm := r.Perm(n)
	g := New(n)
	add := func(u, v int) {
		u, v = perm[u], perm[v]
		if r.Intn(2) == 0 {
			u, v = v, u
		}
		g.AddEdge(u, v)
	}
	for lo := 0; lo < n; {
		sh := shapes[r.Intn(len(shapes))]
		size := 1 + r.Intn(min(n-lo, 1+r.Intn(150)))
		switch {
		case sh == shapeK2 || (size < 3 && sh != shapeIsolated):
			size = min(2, n-lo)
			if size == 2 {
				add(lo, lo+1)
			}
		case sh == shapeIsolated:
			size = 1
		case sh == shapeStar:
			for v := lo + 1; v < lo+size; v++ {
				add(lo, v)
			}
		case sh == shapeLeafyTree:
			hubs := 1 + r.Intn(1+size/16)
			for v := lo + 1; v < lo+size; v++ {
				p := lo + r.Intn(min(hubs, v-lo))
				if r.Intn(3) == 0 {
					p = lo + r.Intn(v-lo)
				}
				add(p, v)
			}
		case sh == shapePendantPath:
			// A ring of at least three with the rest as one path hanging
			// off it; three vertices make a bare path.
			ring := min(max(3, size/2), size-1)
			if ring < 3 {
				ring = 0
			}
			for v := lo; v < lo+ring; v++ {
				add(v, lo+(v-lo+1)%ring)
			}
			if ring > 0 {
				add(lo+r.Intn(ring), lo+ring)
			}
			for v := lo + ring + 1; v < lo+size; v++ {
				add(v-1, v)
			}
		case sh == shapeCycle:
			for v := lo; v < lo+size; v++ {
				add(v, lo+(v-lo+1)%size)
			}
		case sh == shapeSparse:
			for v := lo + 1; v < lo+size; v++ {
				add(lo+r.Intn(v-lo), v)
			}
			for i := 0; i < size/4; i++ {
				u, v := lo+r.Intn(size), lo+r.Intn(size)
				if u != v && !g.HasEdge(perm[u], perm[v]) {
					add(u, v)
				}
			}
		}
		lo += size
	}
	return g
}

// editBoth applies one random edit to both backends: an edge added, an
// edge removed, a leaf's edge swapped to another vertex, or a vertex's
// edges all cut but one (so it becomes a leaf or stays one).
func editBoth(g *Graph, sp *Sparse, r *rand.Rand) {
	n := g.N()
	if n < 2 {
		return
	}
	u := r.Intn(n)
	nb := g.NeighborList(u, nil)
	switch op := r.Intn(4); {
	case op == 0 && len(nb) < n-1:
		v := r.Intn(n)
		for v == u || g.HasEdge(u, v) {
			v = r.Intn(n)
		}
		g.AddEdge(u, v)
		sp.AddEdge(u, v)
	case op == 1 && len(nb) > 0:
		v := nb[r.Intn(len(nb))]
		g.RemoveEdge(u, v)
		sp.RemoveEdge(u, v)
	case op == 2 && len(nb) == 1 && n > 2:
		w := r.Intn(n)
		for w == u || w == nb[0] {
			w = r.Intn(n)
		}
		g.RemoveEdge(u, nb[0])
		sp.RemoveEdge(u, nb[0])
		g.AddEdge(u, w)
		sp.AddEdge(u, w)
	default:
		for _, v := range nb[min(1, len(nb)):] {
			g.RemoveEdge(u, v)
			sp.RemoveEdge(u, v)
		}
	}
}

// checkAggregates requires every vertex's AllSourcesBFS aggregates to equal
// a single-source BFS from it.
func checkAggregates(t *testing.T, where string, g Store, s *BatchBFSScratch) {
	t.Helper()
	n := g.N()
	res := make([]BFSResult, n)
	g.AllSourcesBFS(res, s)
	bs := NewBFSScratch(n)
	for u := 0; u < n; u++ {
		if want := g.BFS(u, nil, bs); res[u] != want {
			t.Fatalf("%s %T: vertex %d (degree %d) aggregates %+v, BFS %+v", where, g, u, g.Degree(u), res[u], want)
		}
	}
}

// FuzzAllSourcesAggregates decodes a shaped network on 1..600 vertices
// (leafy hubs, leaf-only stars, K2s, isolated vertices, pendant paths,
// cycles and random sparse parts, in a disconnected union), runs a random
// edit script on it and requires AllSourcesBFS on both backends to match a
// single-source BFS at every vertex, before the script and after every
// edit. One kernel scratch serves both backends through the whole script.
// The cycle-only seeds put the searched core at exactly 64/65 and 256/257
// vertices, the mixed ones cross both group boundaries after stripping.
func FuzzAllSourcesAggregates(f *testing.F) {
	const cycles = 1 << shapeCycle
	f.Add(int64(1), 1, uint8(0), uint8(3))
	f.Add(int64(2), 2, uint8(0), uint8(3))
	f.Add(int64(3), 3, uint8(1<<shapeStar), uint8(4))
	f.Add(int64(4), 64, uint8(cycles), uint8(2))
	f.Add(int64(5), 65, uint8(cycles), uint8(2))
	f.Add(int64(6), 256, uint8(cycles), uint8(2))
	f.Add(int64(7), 257, uint8(cycles), uint8(2))
	f.Add(int64(8), 64, uint8(0), uint8(8))
	f.Add(int64(9), 65, uint8(0), uint8(8))
	f.Add(int64(10), 256, uint8(0), uint8(8))
	f.Add(int64(11), 257, uint8(0), uint8(8))
	f.Add(int64(12), 600, uint8(0), uint8(6))
	f.Add(int64(13), 300, uint8(1<<shapeLeafyTree|1<<shapeStar), uint8(6))
	f.Add(int64(14), 120, uint8(1<<shapeStar|1<<shapeK2|1<<shapeIsolated), uint8(10))
	f.Add(int64(15), 200, uint8(1<<shapePendantPath|1<<shapeSparse), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, n int, mix, edits uint8) {
		if n < 1 || n > 600 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		g := shapedNetwork(n, mix, r)
		sp := NewSparseFrom(g)
		s := NewBatchBFSScratch(0)
		checkAggregates(t, "start", g, s)
		checkAggregates(t, "start", sp, s)
		for e := 0; e < int(edits%16); e++ {
			editBoth(g, sp, r)
			where := fmt.Sprintf("edit %d", e+1)
			checkAggregates(t, where, g, s)
			checkAggregates(t, where, sp, s)
		}
	})
}

// TestAllSourcesBFSAllocs: with a warm scratch the aggregate pass allocates
// nothing on either backend, nor the one-word pass of networks of at most
// 64 vertices.
func TestAllSourcesBFSAllocs(t *testing.T) {
	g := shapedNetwork(300, 0, rand.New(rand.NewSource(1)))
	small := shapedNetwork(64, 0, rand.New(rand.NewSource(2)))
	for _, st := range []Store{g, NewSparseFrom(g), small} {
		res := make([]BFSResult, st.N())
		s := NewBatchBFSScratch(0)
		st.AllSourcesBFS(res, s)
		if a := testing.AllocsPerRun(10, func() { st.AllSourcesBFS(res, s) }); a != 0 {
			t.Fatalf("%T n=%d: warm AllSourcesBFS allocates %.1f times per call", st, st.N(), a)
		}
	}
}

// BenchmarkAllSourcesOneWord compares the two aggregate passes on
// one-word networks (random trees plus about n/2 chords): "word" is
// AllSourcesBFS, the word-parallel level loop, and "csr" the CSR pass it
// replaces there.
func BenchmarkAllSourcesOneWord(b *testing.B) {
	for _, n := range []int{10, 20, 32, 50, 64} {
		r := lcg(int64(n))
		g, _ := randomPair(n, n/2, &r)
		res := make([]BFSResult, n)
		for _, mode := range []string{"word", "csr"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				s := NewBatchBFSScratch(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if mode == "word" {
						g.AllSourcesBFS(res, s)
					} else {
						allSourcesOver(g, res, s)
					}
				}
			})
		}
	}
}
