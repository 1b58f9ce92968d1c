package game

import (
	"math/rand"
	"testing"

	"ncg/internal/graph"
	"ncg/internal/state"
)

// TestMakePairKey: the key is symmetric and injective on distinct pairs.
func TestMakePairKey(t *testing.T) {
	if MakePairKey(3, 7) != MakePairKey(7, 3) {
		t.Fatal("pair key is not symmetric")
	}
	seen := map[PairKey][2]int{}
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			k := MakePairKey(u, v)
			if prev, dup := seen[k]; dup {
				t.Fatalf("pairs %v and {%d,%d} share key %d", prev, u, v, k)
			}
			seen[k] = [2]int{u, v}
		}
	}
}

// TestDisjointMoves: moves touching a common edge slot collide regardless
// of which endpoint names the pair or whether it is dropped or added.
func TestDisjointMoves(t *testing.T) {
	cases := []struct {
		name  string
		moves []Move
		want  bool
	}{
		{"empty", nil, true},
		{"single", []Move{{Agent: 0, Drop: []int{1}, Add: []int{2}}}, true},
		{"disjoint pairs", []Move{
			{Agent: 0, Drop: []int{1}, Add: []int{2}},
			{Agent: 3, Drop: []int{4}, Add: []int{5}},
		}, true},
		{"shared endpoint distinct pairs", []Move{
			{Agent: 0, Add: []int{2}},
			{Agent: 1, Add: []int{2}}, // both touch vertex 2, different slots
		}, true},
		{"add vs drop of same slot from opposite ends", []Move{
			{Agent: 0, Add: []int{1}},
			{Agent: 1, Drop: []int{0}},
		}, false},
		{"two adds of the same slot", []Move{
			{Agent: 2, Add: []int{5}},
			{Agent: 5, Add: []int{2}},
		}, false},
		{"collision within one move set, later entries", []Move{
			{Agent: 0, Add: []int{3}},
			{Agent: 1, Add: []int{2}},
			{Agent: 3, Drop: []int{0}},
		}, false},
	}
	seen := map[PairKey]struct{}{}
	for _, tc := range cases {
		if got := DisjointMoves(tc.moves, seen); got != tc.want {
			t.Errorf("%s: DisjointMoves = %v, want %v", tc.name, got, tc.want)
		}
		// A nil scratch map must behave identically.
		if got := DisjointMoves(tc.moves, nil); got != tc.want {
			t.Errorf("%s (nil scratch): DisjointMoves = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// randomDisjointSet draws a jointly applicable move set on g: each move
// drops owned neighbours and adds non-neighbours, and every touched slot is
// claimed at most once across the whole set.
func randomDisjointSet(g *graph.Graph, r *rand.Rand) []Move {
	n := g.N()
	claimed := map[PairKey]struct{}{}
	var moves []Move
	for u := 0; u < n; u++ {
		if r.Intn(2) == 0 {
			continue
		}
		var drop, add []int
		g.OwnedNeighbors(u).ForEach(func(v int) {
			k := MakePairKey(u, v)
			if _, dup := claimed[k]; dup || r.Intn(2) != 0 {
				return
			}
			claimed[k] = struct{}{}
			drop = append(drop, v)
		})
		for v := 0; v < n; v++ {
			k := MakePairKey(u, v)
			if v == u || g.HasEdge(u, v) || r.Intn(4) != 0 {
				continue
			}
			if _, dup := claimed[k]; dup {
				continue
			}
			claimed[k] = struct{}{}
			add = append(add, v)
		}
		if len(drop) > 0 || len(add) > 0 {
			moves = append(moves, Move{Agent: u, Drop: drop, Add: add})
		}
	}
	return moves
}

// TestApplySetUndoRoundTrip: batch apply + undo restores the graph exactly
// (including ownership) and cancels an attached incremental fingerprint.
func TestApplySetUndoRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	const n = 14
	tables := state.NewTables(n)
	for trial := 0; trial < 50; trial++ {
		g := randomOwnedGraph(n, r.Intn(10), r)
		var fp state.Fingerprint
		fp.Attach(tables, g)
		before := g.Clone()
		awareBefore, blindBefore := fp.Aware(), fp.Blind()

		moves := randomDisjointSet(g, r)
		if !DisjointMoves(moves, nil) {
			t.Fatal("randomDisjointSet produced a colliding set")
		}
		as := ApplySet(g, moves)
		if len(moves) > 0 && g.Equal(before) {
			// Every move changes at least one edge, so a non-empty batch
			// must change the graph.
			t.Fatal("non-empty batch left the graph unchanged")
		}
		as.Undo()
		g.SetObserver(nil)
		if !g.Equal(before) {
			t.Fatalf("trial %d: undo did not restore the graph", trial)
		}
		if fp.Aware() != awareBefore || fp.Blind() != blindBefore {
			t.Fatalf("trial %d: undo did not cancel the fingerprint deltas", trial)
		}
	}
}

// TestApplySetOrderIndependence: a disjoint set commits to the same network
// (edges and ownership) in any application order.
func TestApplySetOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	const n = 14
	for trial := 0; trial < 50; trial++ {
		g := randomOwnedGraph(n, r.Intn(10), r)
		moves := randomDisjointSet(g, r)

		g1 := g.Clone()
		ApplySet(g1, moves)

		rev := make([]Move, len(moves))
		for i, m := range moves {
			rev[len(moves)-1-i] = m
		}
		g2 := g.Clone()
		ApplySet(g2, rev)

		if !g1.Equal(g2) {
			t.Fatalf("trial %d: commit order changed the resulting network", trial)
		}
	}
}
