package graph

import (
	"testing"
)

// The sparse backend's whole contract is bit-identity with the dense
// backend: same neighbour order, same BFS rows and aggregates, same
// canonical encodings (the bytes fingerprints and the state store hash).
// These tests drive both backends through identical edit scripts and
// require every observable to match, and pin the arena's O(n + m) memory
// bound under adversarial churn.

// lcg is a tiny deterministic generator for edit scripts; the graph tests
// cannot import internal/gen (it imports this package).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// randomPair builds a random connected dense graph and its sparse mirror:
// a random attachment tree plus extra random edges, inserted through the
// mutation path (not NewSparseFrom) so slack-slot insertion is exercised.
func randomPair(n, extra int, r *lcg) (*Graph, *Sparse) {
	g := New(n)
	sp := NewSparse(n)
	add := func(owner, v int) {
		g.AddEdge(owner, v)
		sp.AddEdge(owner, v)
	}
	for v := 1; v < n; v++ {
		add(v, r.intn(v))
	}
	for i := 0; i < extra; i++ {
		u, v := r.intn(n), r.intn(n)
		if u != v && !g.HasEdge(u, v) {
			add(u, v)
		}
	}
	return g, sp
}

// checkSparseParity fails the test unless every Store observable of sp
// matches g: counters, neighbour/owned lists, canonical encodings, BFS
// distance rows and aggregates, and the batch kernels. Its searches run
// on bs, which callers reuse across checks of a mutating pair, so the
// dense backend's cached mover searches are reached warm and stale.
func checkSparseParity(t *testing.T, g *Graph, sp *Sparse, bs *BFSScratch) {
	t.Helper()
	if err := sp.Validate(); err != nil {
		t.Fatalf("sparse invariants: %v", err)
	}
	n := g.N()
	if sp.N() != n || sp.M() != g.M() {
		t.Fatalf("counters diverged: sparse n=%d m=%d, dense n=%d m=%d", sp.N(), sp.M(), n, g.M())
	}
	var dl, sl []int
	for u := 0; u < n; u++ {
		if sp.Degree(u) != g.Degree(u) || sp.OutDegree(u) != g.OutDegree(u) {
			t.Fatalf("degree of %d diverged: sparse %d/%d, dense %d/%d",
				u, sp.Degree(u), sp.OutDegree(u), g.Degree(u), g.OutDegree(u))
		}
		dl, sl = g.NeighborList(u, dl[:0]), sp.NeighborList(u, sl[:0])
		if !equalInts(dl, sl) {
			t.Fatalf("neighbour list of %d diverged: dense %v, sparse %v", u, dl, sl)
		}
		dl, sl = g.OwnedList(u, dl[:0]), sp.OwnedList(u, sl[:0])
		if !equalInts(dl, sl) {
			t.Fatalf("owned list of %d diverged: dense %v, sparse %v", u, dl, sl)
		}
		// n-1-deg increasing vertices, none of them u or a neighbour,
		// are exactly u's non-neighbours.
		dl, sl = g.NonNeighborList(u, dl[:0]), sp.NonNeighborList(u, sl[:0])
		if !equalInts(dl, sl) || len(dl) != n-1-g.Degree(u) {
			t.Fatalf("non-neighbour list of %d (degree %d) diverged: dense %v, sparse %v", u, g.Degree(u), dl, sl)
		}
		for i, v := range dl {
			if v == u || g.HasEdge(u, v) || i > 0 && v <= dl[i-1] {
				t.Fatalf("non-neighbour list of %d: %v holds %d at %d", u, dl, v, i)
			}
		}
	}
	dRows, sRows := g.AppendOwnedRows(nil), sp.AppendOwnedRows(nil)
	if !equalWords(dRows, sRows) {
		t.Fatalf("owned encodings diverged")
	}
	dRows, sRows = g.AppendAdjRows(dRows[:0]), sp.AppendAdjRows(sRows[:0])
	if !equalWords(dRows, sRows) {
		t.Fatalf("adjacency encodings diverged")
	}
	if !sp.Dense().Equal(g) {
		t.Fatalf("Dense() round-trip diverged:\n dense  %v\n sparse %v", g, sp)
	}

	dd, sd := make([]int32, n), make([]int32, n)
	for src := 0; src < n; src++ {
		dr, sr := g.BFS(src, dd, bs), sp.BFS(src, sd, bs)
		if dr != sr || !equal32(dd, sd) {
			t.Fatalf("BFS from %d diverged: dense %+v, sparse %+v", src, dr, sr)
		}
		excl := (src + 1) % n
		if excl != src {
			dr, sr = g.BFSExcluding(src, excl, dd, bs), sp.BFSExcluding(src, excl, sd, bs)
			if dr != sr || !equal32(dd, sd) {
				t.Fatalf("BFSExcluding(%d,%d) diverged: dense %+v, sparse %+v", src, excl, dr, sr)
			}
		}
		// The edited search, from the mover and from another source: the
		// mover drops every other neighbour and adds every third
		// non-neighbour.
		for _, u := range []int{src, excl} {
			drop, add := dl[:0], sl[:0]
			for v := 0; v < n; v++ {
				switch {
				case v == u:
				case g.HasEdge(u, v):
					if (u+v)%2 == 0 {
						drop = append(drop, v)
					}
				case (u+v)%3 == 0:
					add = append(add, v)
				}
			}
			dr, sr = g.BFSEdited(src, u, drop, add, dd, bs), sp.BFSEdited(src, u, drop, add, sd, bs)
			if dr != sr || !equal32(dd, sd) {
				t.Fatalf("BFSEdited(%d, u=%d, drop %v, add %v) diverged: dense %+v, sparse %+v", src, u, drop, add, dr, sr)
			}
			// The aggregate-only search of the mover, the one a scan
			// scores candidates with (from cached balls on one-word
			// networks).
			if u == src {
				da, sa := g.BFSEdited(u, u, drop, add, nil, bs), sp.BFSEdited(u, u, drop, add, nil, bs)
				if da != dr || sa != dr {
					t.Fatalf("aggregate-only BFSEdited(u=%d, drop %v, add %v) diverged: dense %+v, sparse %+v, with distances %+v",
						u, drop, add, da, sa, dr)
				}
			}
			dl, sl = drop, add
		}
	}
	if g.Connected() != sp.Connected() {
		t.Fatalf("connectivity diverged")
	}

	// The batched mover search, for every drop of a scan (one neighbour,
	// or none as for the GBG's additions), under a random bound
	// (randomBound): each target's result must equal the edited search
	// with a distance row, which never reads the balls, or be a cut of a
	// cost that could not be kept (bounded). Every mover is checked on
	// the one-word dense network, where the batched call reads balls or
	// runs one-word searches; the CSR copy's call, and the dense one
	// beyond 64 vertices, are loops of their own BFSEdited, checked at
	// every 16th mover, which keeps the fuzz target's throughput.
	var targets []int
	dt, st, want := make([]BFSResult, n), make([]BFSResult, n), make([]BFSResult, n)
	pick := lcg(n)
	for u := 0; u < n; u++ {
		both := u%16 == 0
		if g.word == nil && !both {
			continue
		}
		targets = targets[:0]
		for v := 0; v < n; v++ {
			if v != u && !g.HasEdge(u, v) {
				targets = append(targets, v)
			}
		}
		drops := [][]int{nil}
		for _, x := range g.NeighborList(u, nil) {
			drops = append(drops, []int{x})
		}
		for _, drop := range drops {
			for i, y := range targets {
				want[i] = g.BFSEdited(u, u, drop, []int{y}, dd, bs)
			}
			b := randomBound(want[:len(targets)], n, pick.next())
			g.BFSEditedTargets(u, drop, targets, b, dt[:len(targets)], bs)
			if both {
				sp.BFSEditedTargets(u, drop, targets, b, st[:len(targets)], bs)
			}
			for i, y := range targets {
				if !bounded(dt[i], want[i], n, b) || both && !bounded(st[i], want[i], n, b) {
					t.Fatalf("BFSEditedTargets(u=%d, drop %v, bound %+v) at target %d: dense %+v, sparse %+v, edited search %+v",
						u, drop, b, y, dt[i], st[i], want[i])
				}
			}
		}
	}

	batch := NewBatchBFSScratch(n)
	dm, sm := make([]int32, n*n), make([]int32, n*n)
	dres, sres := make([]BFSResult, n), make([]BFSResult, n)
	g.AllSourcesBFSFlat(dm, dres, batch)
	sp.AllSourcesBFSFlat(sm, sres, batch)
	if !equal32(dm, sm) {
		t.Fatalf("all-sources distance matrices diverged")
	}
	for i := range dres {
		if dres[i] != sres[i] {
			t.Fatalf("all-sources aggregate %d diverged: dense %+v, sparse %+v", i, dres[i], sres[i])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equal32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyScript drives both backends through the same edit script: each
// byte triple selects add / remove / transfer with wrap-around operands,
// so arbitrary fuzz bytes always map to a legal mutation sequence.
func applyScript(g *Graph, sp *Sparse, script []byte) {
	n := g.N()
	for i := 0; i+2 < len(script); i += 3 {
		u, v := int(script[i+1])%n, int(script[i+2])%n
		if u == v {
			continue
		}
		switch script[i] % 3 {
		case 0:
			if !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				sp.AddEdge(u, v)
			}
		case 1:
			if g.HasEdge(u, v) {
				g.RemoveEdge(u, v)
				sp.RemoveEdge(u, v)
			}
		case 2:
			if g.HasEdge(u, v) {
				g.SetOwner(u, v)
				sp.SetOwner(u, v)
			}
		}
	}
}

// FuzzSparseParity feeds random edit scripts into both backends and
// requires every observable — neighbour order, ownership, BFS rows and
// aggregates, edited searches single and batched, batch kernels,
// canonical encodings (the bytes fingerprints and the interned state
// store hash) — to stay bit-identical. Sizes reach past 64, so the dense
// backend's one-word and multi-word searches are both compared with CSR.
func FuzzSparseParity(f *testing.F) {
	f.Add(int64(1), 8, []byte{0, 1, 2, 0, 3, 4, 1, 1, 2})
	f.Add(int64(2), 24, []byte{2, 9, 3, 0, 200, 13, 1, 9, 3, 0, 7, 7})
	f.Add(int64(3), 1, []byte{})
	f.Add(int64(4), 100, []byte{1, 64, 3, 0, 70, 99, 1, 65, 2})
	// Either side of the ball gate and of the one-word limit.
	f.Add(int64(5), 19, []byte{0, 3, 17, 1, 2, 11, 2, 5, 9, 0, 18, 4})
	f.Add(int64(6), 20, []byte{0, 3, 17, 1, 2, 11, 2, 5, 9, 0, 19, 4})
	f.Add(int64(7), 64, []byte{0, 63, 1, 1, 40, 20, 2, 7, 50, 0, 33, 62})
	f.Add(int64(8), 65, []byte{0, 64, 1, 1, 40, 20, 2, 7, 50, 0, 33, 63})
	f.Fuzz(func(t *testing.T, seed int64, n int, script []byte) {
		if n < 1 {
			n = 1
		}
		if n > 130 {
			n = n%130 + 1
		}
		if len(script) > 3*4096 {
			script = script[:3*4096]
		}
		r := lcg(seed)
		var g *Graph
		var sp *Sparse
		if n > 1 {
			g, sp = randomPair(n, n/2, &r)
		} else {
			g, sp = New(n), NewSparse(n)
		}
		// Check halfway through the script and at its end with one
		// scratch, so the second check meets caches of a stale version.
		bs := NewBFSScratch(n)
		half := len(script) / 6 * 3
		applyScript(g, sp, script[:half])
		checkSparseParity(t, g, sp, bs)
		applyScript(g, sp, script[half:])
		checkSparseParity(t, g, sp, bs)
	})
}

// TestSparseParityChurn is the deterministic always-on slice of the fuzz
// surface: heavy random churn at a few sizes, parity checked throughout.
func TestSparseParityChurn(t *testing.T) {
	for _, n := range []int{2, 5, 17, 33, 64} {
		r := lcg(int64(n))
		g, sp := randomPair(n, n, &r)
		bs := NewBFSScratch(n)
		checkSparseParity(t, g, sp, bs)
		script := make([]byte, 3*64*n)
		for i := range script {
			script[i] = byte(r.next())
		}
		applyScript(g, sp, script)
		checkSparseParity(t, g, sp, bs)
	}
}

// TestSparseMemoryBudget pins the arena's O(n + m) contract: under
// adversarial churn (every edge repeatedly deleted and re-inserted, which
// maximizes relocations) the arena never exceeds a constant multiple of
// the live entry count plus the per-row slack floor. Without amortized
// compaction the arena would grow without bound here.
func TestSparseMemoryBudget(t *testing.T) {
	const n, extra = 2048, 2048
	r := lcg(7)
	g, sp := randomPair(n, extra, &r)
	mMax := sp.M()
	limit := func() int { return 16*(mMax+n) + 64 }
	for round := 0; round < 8; round++ {
		script := make([]byte, 3*2*n)
		for i := range script {
			script[i] = byte(r.next())
		}
		applyScript(g, sp, script)
		if sp.M() > mMax {
			mMax = sp.M()
		}
		if len(sp.arena) > limit() {
			t.Fatalf("round %d: arena holds %d slots for m=%d, n=%d (budget %d): compaction is not holding O(n+m)",
				round, len(sp.arena), sp.M(), n, limit())
		}
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("sparse invariants after churn: %v", err)
	}
}

// BenchmarkSparseBFS1e5 times one queue-based BFS at n=10^5 on a sparse
// near-tree (m = 1.1n) — the single-source kernel of landmark mode at the
// scale the CSR backend exists for. Memory stays O(n + m), so this is
// CI-sized despite the vertex count.
func BenchmarkSparseBFS1e5(b *testing.B) {
	const n = 100_000
	r := lcg(11)
	sp := NewSparse(n)
	for v := 1; v < n; v++ {
		sp.AddEdge(v, r.intn(v))
	}
	for i := 0; i < n/10; i++ {
		u, v := r.intn(n), r.intn(n)
		if u != v && !sp.HasEdge(u, v) {
			sp.AddEdge(u, v)
		}
	}
	s := NewBFSScratch(n)
	dist := make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sp.BFS(i%n, dist, s)
		if res.Reached != n {
			b.Fatal("benchmark graph not connected")
		}
	}
}
