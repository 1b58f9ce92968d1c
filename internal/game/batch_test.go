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

// applySet applies the moves in slice order, as a round commits the moves
// it keeps, and returns their undo records.
func applySet(g graph.Store, moves []Move) []Applied {
	applied := make([]Applied, len(moves))
	for i, m := range moves {
		applied[i] = Apply(g, m)
	}
	return applied
}

// TestApplySetUndoRoundTrip: applying a disjoint move set move by move and
// undoing it in reverse order restores the graph exactly (including
// ownership) and cancels an attached incremental fingerprint.
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
		applied := applySet(g, moves)
		if len(moves) > 0 && g.Equal(before) {
			// Every move changes at least one edge, so a non-empty set
			// must change the graph.
			t.Fatal("non-empty move set left the graph unchanged")
		}
		for i := len(applied) - 1; i >= 0; i-- {
			applied[i].Undo()
		}
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
		applySet(g1, moves)

		rev := make([]Move, len(moves))
		for i, m := range moves {
			rev[len(moves)-1-i] = m
		}
		g2 := g.Clone()
		applySet(g2, rev)

		if !g1.Equal(g2) {
			t.Fatalf("trial %d: commit order changed the resulting network", trial)
		}
	}
}
