package graph

import (
	"math/rand"
	"testing"
)

// randConnected builds a random connected graph: a random attachment tree
// plus extra random edges.
func randConnected(n, extra int, r *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestLandmarksBuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 33, 70} {
		for _, k := range []int{1, 2, 7, 80} {
			g := randConnected(n, n/2, r)
			lm := BuildLandmarks(g, k, nil)
			want := k
			if want > n {
				want = n
			}
			if lm.K() != want {
				t.Fatalf("n=%d k=%d: K() = %d, want %d", n, k, lm.K(), want)
			}
			seen := map[int]bool{}
			for i := 0; i < lm.K(); i++ {
				if seen[lm.ID(i)] {
					t.Fatalf("n=%d k=%d: duplicate landmark %d", n, k, lm.ID(i))
				}
				seen[lm.ID(i)] = true
			}
			checkRows(t, g, &lm.Rows, "build")
			if !lm.Complete() {
				t.Fatalf("n=%d k=%d: connected graph reported incomplete", n, k)
			}
		}
	}
}

func TestLandmarksBuildDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randConnected(60, 25, r)
	a := BuildLandmarks(g, 8, nil)
	b := BuildLandmarks(g, 8, nil)
	for i := 0; i < 8; i++ {
		if a.ID(i) != b.ID(i) {
			t.Fatalf("selection not deterministic: ids[%d] = %d vs %d", i, a.ID(i), b.ID(i))
		}
	}
}

func TestLandmarksDisconnected(t *testing.T) {
	g := New(10)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	lm := BuildLandmarks(g, 3, nil)
	if lm.Complete() {
		t.Fatal("disconnected graph reported complete")
	}
	checkRows(t, g, &lm.Rows, "disconnected build")
}

// TestLandmarksApplySwaps drives random swap deltas (remove one edge, insert
// another) through the incremental repair and cross-checks every row.
func TestLandmarksApplySwaps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 4, 9} {
		g := randConnected(48, 30, r)
		lm := BuildLandmarks(g, k, nil)
		for step := 0; step < 300; step++ {
			u := r.Intn(g.N())
			var nbrs, non []int
			nbrs = g.NeighborList(u, nbrs[:0])
			for v := 0; v < g.N(); v++ {
				if v != u && !g.HasEdge(u, v) {
					non = append(non, v)
				}
			}
			if len(nbrs) == 0 || len(non) == 0 {
				continue
			}
			x := nbrs[r.Intn(len(nbrs))]
			y := non[r.Intn(len(non))]
			g.RemoveEdge(u, x)
			g.AddEdge(u, y)
			lm.Apply(g, u, []int{x}, []int{y})
			if step%29 == 0 {
				checkRows(t, g, &lm.Rows, "swap")
			}
		}
		checkRows(t, g, &lm.Rows, "swap final")
	}
}

// TestLandmarksApplySingles drives pure additions and pure removals,
// including disconnecting removals and reconnecting additions.
func TestLandmarksApplySingles(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randConnected(40, 12, r)
	lm := BuildLandmarks(g, 5, nil)
	for step := 0; step < 400; step++ {
		u := r.Intn(g.N())
		if r.Intn(2) == 0 && g.Degree(u) > 0 {
			var nbrs []int
			nbrs = g.NeighborList(u, nbrs[:0])
			x := nbrs[r.Intn(len(nbrs))]
			g.RemoveEdge(u, x)
			lm.Apply(g, u, []int{x}, nil)
		} else {
			v := r.Intn(g.N())
			if v == u || g.HasEdge(u, v) {
				continue
			}
			g.AddEdge(u, v)
			lm.Apply(g, u, nil, []int{v})
		}
		if step%23 == 0 {
			checkRows(t, g, &lm.Rows, "single")
		}
	}
	checkRows(t, g, &lm.Rows, "single final")
}

// TestLandmarksApplyMulti exercises the multi-edge fallback (full batched
// re-search).
func TestLandmarksApplyMulti(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := randConnected(30, 20, r)
	lm := BuildLandmarks(g, 4, nil)
	u := 0
	var nbrs []int
	nbrs = g.NeighborList(u, nbrs[:0])
	var non []int
	for v := 1; v < g.N(); v++ {
		if !g.HasEdge(u, v) {
			non = append(non, v)
		}
	}
	if len(nbrs) < 1 || len(non) < 2 {
		t.Skip("unlucky layout")
	}
	drops := []int{nbrs[0]}
	adds := []int{non[0], non[1]}
	for _, x := range drops {
		g.RemoveEdge(u, x)
	}
	for _, y := range adds {
		g.AddEdge(u, y)
	}
	lm.Apply(g, u, drops, adds)
	checkRows(t, g, &lm.Rows, "multi")
}
