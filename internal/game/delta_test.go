package game

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ncg/internal/graph"
)

// Equivalence of the delta evaluator (delta.go) with the naive full-BFS
// reference path (naive.go): identical HasImproving verdicts, identical
// BestMoves sets and costs, identical ImprovingMoves sets, on randomized
// owned graphs — connected and disconnected — for every delta-scanned game
// in both distance-cost versions.

// deltaGames returns every game whose scans are delta-evaluated, with a
// spread of edge prices for the GBG.
func deltaGames(host *graph.Graph) []Game {
	gs := []Game{
		NewSwap(Sum), NewSwap(Max),
		NewAsymSwap(Sum), NewAsymSwap(Max),
		NewGreedyBuy(Sum, AlphaInt(1)),
		NewGreedyBuy(Sum, NewAlpha(5, 2)),
		NewGreedyBuy(Max, AlphaInt(3)),
		NewGreedyBuy(Max, NewAlpha(1, 2)),
	}
	if host != nil {
		gs = append(gs,
			NewSwapHost(Sum, host), NewSwapHost(Max, host),
			NewAsymSwapHost(Sum, host), NewAsymSwapHost(Max, host),
			NewGreedyBuyHost(Sum, NewAlpha(5, 2), host),
		)
	}
	return gs
}

func sortedMoves(ms []Move) []Move {
	out := CloneMoves(append([]Move(nil), ms...))
	for i := range out {
		sort.Ints(out[i].Drop)
		sort.Ints(out[i].Add)
	}
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
	})
	return out
}

func movesEqual(a, b []Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// randomDeltaGraph builds a random owned graph; roughly one in three is
// disconnected, exercising the Unreachable saturation of the delta path.
func randomDeltaGraph(n int, r *rand.Rand) *graph.Graph {
	g := graph.New(n)
	m := r.Intn(2*n + 1)
	if r.Intn(3) > 0 {
		// Connected base: a random spanning tree over a shuffled order.
		perm := r.Perm(n)
		for i := 1; i < n; i++ {
			u, v := perm[i], perm[r.Intn(i)]
			if r.Intn(2) == 0 {
				g.AddEdge(u, v)
			} else {
				g.AddEdge(v, u)
			}
		}
	}
	for k := 0; k < m; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestDeltaMatchesNaiveScans(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(15)
		g := randomDeltaGraph(n, r)
		host := randomDeltaGraph(n, r)
		s := NewScratch(n)
		sn := NewScratch(n)
		for _, gm := range deltaGames(host) {
			ng := Naive(gm)
			for u := 0; u < n; u++ {
				before := g.Clone()
				if got, want := gm.HasImproving(g, u, s), ng.HasImproving(g, u, sn); got != want {
					t.Fatalf("%s agent %d on %v: HasImproving = %v, naive %v", gm.Name(), u, g, got, want)
				}
				db, dc := gm.BestMoves(g, u, s, nil)
				db = CloneMoves(db)
				nb, nc := ng.BestMoves(g, u, sn, nil)
				if dc != nc {
					t.Fatalf("%s agent %d on %v: best cost %v, naive %v", gm.Name(), u, g, dc, nc)
				}
				if !movesEqual(db, nb) {
					t.Fatalf("%s agent %d on %v: best moves %v, naive %v", gm.Name(), u, g, db, nb)
				}
				di := CloneMoves(gm.ImprovingMoves(g, u, s, nil))
				ni := ng.ImprovingMoves(g, u, sn, nil)
				if !movesEqual(sortedMoves(di), sortedMoves(ni)) {
					t.Fatalf("%s agent %d on %v: improving %v, naive %v", gm.Name(), u, g, di, ni)
				}
				if !g.Equal(before) {
					t.Fatalf("%s agent %d: scan mutated the graph", gm.Name(), u)
				}
			}
		}
	}
}

// testOracle is an exact all-pairs oracle built by BFS, for tests.
type testOracle struct{ rows [][]int32 }

func newTestOracle(g *graph.Graph) *testOracle {
	return &testOracle{rows: g.AllDistances()}
}

func (o *testOracle) Row(v int) []int32 { return o.rows[v] }

// TestDeltaWithOracleMatchesNaive: with a distance oracle installed —
// enabling searchless addition scoring, target-bound pruning, and the
// lazy probe path — every scan must still agree with the naive reference.
func TestDeltaWithOracleMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(15)
		g := randomDeltaGraph(n, r)
		host := randomDeltaGraph(n, r)
		s := NewScratch(n)
		sn := NewScratch(n)
		s.SetDistOracle(newTestOracle(g))
		for _, gm := range deltaGames(host) {
			ng := Naive(gm)
			for u := 0; u < n; u++ {
				if got, want := gm.HasImproving(g, u, s), ng.HasImproving(g, u, sn); got != want {
					t.Fatalf("%s agent %d on %v: oracle HasImproving = %v, naive %v", gm.Name(), u, g, got, want)
				}
				db, dc := gm.BestMoves(g, u, s, nil)
				db = CloneMoves(db)
				nb, nc := ng.BestMoves(g, u, sn, nil)
				if dc != nc || !movesEqual(db, nb) {
					t.Fatalf("%s agent %d on %v: oracle best %v (%v), naive %v (%v)", gm.Name(), u, g, db, dc, nb, nc)
				}
				di := CloneMoves(gm.ImprovingMoves(g, u, s, nil))
				ni := ng.ImprovingMoves(g, u, sn, nil)
				if !movesEqual(di, ni) {
					t.Fatalf("%s agent %d on %v: oracle improving %v, naive %v", gm.Name(), u, g, di, ni)
				}
			}
		}
		s.SetDistOracle(nil)
	}
}

// TestDeltaEnumerationOrder: beyond set equality, BestMoves and
// ImprovingMoves must enumerate in exactly the naive order, because the
// TieFirst/TieLast rules of the dynamics break ties positionally.
func TestDeltaEnumerationOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(12)
		g := randomDeltaGraph(n, r)
		s := NewScratch(n)
		sn := NewScratch(n)
		for _, gm := range deltaGames(nil) {
			ng := Naive(gm)
			for u := 0; u < n; u++ {
				db, _ := gm.BestMoves(g, u, s, nil)
				db = CloneMoves(db)
				nb, _ := ng.BestMoves(g, u, sn, nil)
				if !movesEqual(db, nb) {
					t.Fatalf("%s agent %d on %v: best order %v, naive %v", gm.Name(), u, g, db, nb)
				}
				di := CloneMoves(gm.ImprovingMoves(g, u, s, nil))
				ni := ng.ImprovingMoves(g, u, sn, nil)
				if !movesEqual(di, ni) {
					t.Fatalf("%s agent %d on %v: improving order %v, naive %v", gm.Name(), u, g, di, ni)
				}
			}
		}
	}
}

// TestDeltaCostAgreement: the current-cost shortcut of the delta scans
// (derived from the neighbour minima) must equal the game's Cost method on
// the same state.
func TestDeltaCostAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(14)
		g := randomDeltaGraph(n, r)
		s := NewScratch(n)
		for _, kind := range []DistKind{Sum, Max} {
			sg := NewSwap(kind)
			for u := 0; u < n; u++ {
				s.deltaBegin(g, u)
				s.deltaInit(g, u)
				got := Cost{Dist: s.deltaCurDist(kind)}
				want := sg.Cost(g, u, s)
				if got != want {
					t.Fatalf("kind %v agent %d on %v: delta cost %v, Cost %v", kind, u, g, got, want)
				}
			}
		}
	}
}

// TestBuyFastProbeAgreement: the single-edge pre-pass of Buy.HasImproving
// must never change the verdict of the exhaustive enumeration.
func TestBuyFastProbeAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(7)
		g := randomDeltaGraph(n, r)
		s := NewScratch(n)
		for _, alpha := range []Alpha{AlphaInt(1), NewAlpha(3, 2), AlphaInt(5)} {
			for _, kind := range []DistKind{Sum, Max} {
				bg := NewBuy(kind, alpha)
				for u := 0; u < n; u++ {
					got := bg.HasImproving(g, u, s)
					// Only probes get the pre-pass: the improving query
					// runs the exhaustive enumeration alone.
					exhaustive := len(bg.ImprovingMoves(g, u, s, nil)) > 0
					if got != exhaustive {
						t.Fatalf("%s agent %d on %v: HasImproving = %v, exhaustive %v", bg.Name(), u, g, got, exhaustive)
					}
				}
			}
		}
	}
}

// TestScratchReuseAcrossSizes: one scratch serving graphs of different
// vertex counts must keep the delta state consistent.
func TestScratchReuseAcrossSizes(t *testing.T) {
	s := NewScratch(4)
	sg := NewSwap(Sum)
	for _, n := range []int{4, 9, 5, 12, 3} {
		g := graph.Path(n)
		for u := 0; u < n; u++ {
			moves, c := sg.BestMoves(g, u, s, nil)
			moves = CloneMoves(moves)
			nm, nc := Naive(sg).BestMoves(g, u, NewScratch(n), nil)
			if c != nc || !movesEqual(moves, nm) {
				t.Fatalf("n=%d agent %d: %v (%v) vs naive %v (%v)", n, u, moves, c, nm, nc)
			}
		}
	}
}

// TestDeltaLargeSumNotDisconnected pins the cost semantics of SUM
// aggregates past Unreachable: the end of a 47000-vertex path is connected
// with a distance sum over 10^9, and its one host-permitted swap (to the
// path's middle) halves that sum. Disconnection must come from unreachable
// vertices, not from the size of the sum.
func TestDeltaLargeSumNotDisconnected(t *testing.T) {
	const n, mid = 47000, 23500
	g := graph.NewSparse(n)
	host := graph.NewSparse(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
		host.AddEdge(v, v+1)
	}
	host.AddEdge(0, mid)
	gm := NewSwapHost(Sum, host)
	s := NewScratch(n)
	if c := gm.Cost(g, 0, s); c.Dist != 1104476500 {
		t.Fatalf("Cost(0) = %v, want 1104476500", c)
	}
	if !gm.HasImproving(g, 0, s) {
		t.Fatal("HasImproving(0) = false, want the swap to the middle")
	}
	want := []Move{{Agent: 0, Drop: []int{1}, Add: []int{mid}}}
	moves, c := gm.BestMoves(g, 0, s, nil)
	if c.Dist != 552273499 || !movesEqual(cloneMoves(moves), want) {
		t.Fatalf("BestMoves(0) = %v at %v, want %v at 552273499", moves, c, want)
	}
	if moves := gm.ImprovingMoves(g, 0, s, nil); !movesEqual(cloneMoves(moves), want) {
		t.Fatalf("ImprovingMoves(0) = %v, want %v", moves, want)
	}
}
