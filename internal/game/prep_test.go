package game

import (
	"fmt"
	"math/rand"
	"testing"

	"ncg/internal/graph"
)

// The delta preparation of a scan (G−u neighbour rows, minima, witness
// buckets, current-cost and target aggregates) is kept on the scratch for
// the next scan of the same mover on the same network version. These tests
// carry one scratch across queries, games, distance kinds, scan modes,
// movers, mutations and graphs, and require every answer to equal the one
// a fresh scratch gives.

// prepGames returns the games whose scans open the delta preparation,
// both distance kinds each; the Buy Game (whose probes offer its single
// edits through it) only on networks small enough for its exhaustive
// strategy space.
func prepGames(n int) []Game {
	alpha := NewAlpha(5, 2)
	gs := []Game{
		NewSwap(Sum), NewSwap(Max),
		NewAsymSwap(Sum), NewAsymSwap(Max),
		NewGreedyBuy(Sum, alpha), NewGreedyBuy(Max, alpha),
	}
	if n <= 12 {
		gs = append(gs, NewBuy(Sum, alpha), NewBuy(Max, alpha))
	}
	return gs
}

// storeOracle returns the exact distance rows of g as a DistOracle.
func storeOracle(g graph.Store) *testOracle {
	n := g.N()
	o := &testOracle{rows: make([][]int32, n)}
	bfs := graph.NewBFSScratch(n)
	for v := range o.rows {
		o.rows[v] = make([]int32, n)
		g.BFS(v, o.rows[v], bfs)
	}
	return o
}

// prepModes arm a scratch for one of the scan modes: plain delta scans,
// the exact oracle, landmarks, and warm all-sources sums (the SUM leaf
// scores).
var prepModes = []string{"delta", "oracle", "landmarks", "sums"}

func armPrep(s *Scratch, mode string, g graph.Store, gm Game) {
	s.SetDistOracle(nil)
	s.SetLandmarks(nil)
	switch mode {
	case "oracle":
		s.SetDistOracle(storeOracle(g))
	case "landmarks":
		s.SetLandmarks(graph.BuildLandmarks(g, 3, nil))
	case "sums":
		AllCosts(g, gm, s, nil)
	}
}

// askPrep answers query q of gm about u on s in the given mode and on a
// fresh scratch in the same mode, and fails unless the answers agree.
func askPrep(t *testing.T, where string, g graph.Store, s *Scratch, gm Game, u int, mode string, q int) {
	t.Helper()
	fresh := NewScratch(g.N())
	armPrep(s, mode, g, gm)
	armPrep(fresh, mode, g, gm)
	where = fmt.Sprintf("%s: %s %s agent %d", where, gm.Name(), mode, u)
	switch q % 3 {
	case 0:
		if got, want := gm.HasImproving(g, u, s), gm.HasImproving(g, u, fresh); got != want {
			t.Fatalf("%s: HasImproving %v, fresh scratch %v", where, got, want)
		}
	case 1:
		got := CloneMoves(gm.ImprovingMoves(g, u, s, nil))
		if want := gm.ImprovingMoves(g, u, fresh, nil); !movesEqual(got, want) {
			t.Fatalf("%s: ImprovingMoves %v, fresh scratch %v", where, got, want)
		}
	case 2:
		got, c := gm.BestMoves(g, u, s, nil)
		got = CloneMoves(got)
		if want, wc := gm.BestMoves(g, u, fresh, nil); c != wc || !movesEqual(got, want) {
			t.Fatalf("%s: BestMoves %v at %v, fresh scratch %v at %v", where, got, c, want, wc)
		}
	}
}

// askAllPrep asks u every query of every game in every mode on s, in a
// random interleaving, so each scan meets a preparation left by another
// game, kind, mode or query.
func askAllPrep(t *testing.T, where string, g graph.Store, s *Scratch, u int, r *rand.Rand) {
	t.Helper()
	games := prepGames(g.N())
	type ask struct{ gi, mode, q int }
	var asks []ask
	for gi := range games {
		for mode := range prepModes {
			for q := 0; q < 3; q++ {
				asks = append(asks, ask{gi, mode, q})
			}
		}
	}
	r.Shuffle(len(asks), func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
	for _, a := range asks {
		askPrep(t, where, g, s, games[a.gi], u, prepModes[a.mode], a.q)
	}
}

// prepSizes span the Buy Game's small networks, the one-word limit and the
// batched neighbour rows of oracle-less scans (from 128 agents).
var prepSizes = []int{9, 40, 130}

func prepGraph(n int, r *rand.Rand) *graph.Graph {
	for {
		g := randomDeltaGraph(n, r)
		if n < 130 || g.Connected() {
			return g
		}
	}
}

// TestDeltaPrepAcrossQueries: every mover in turn, then movers revisited
// out of order, each asked every query of every game in every mode on one
// scratch, on both backends.
func TestDeltaPrepAcrossQueries(t *testing.T) {
	for _, n := range prepSizes {
		r := rand.New(rand.NewSource(int64(n)))
		dense := prepGraph(n, r)
		for _, g := range []graph.Store{dense, graph.NewSparseFrom(dense)} {
			s := NewScratch(n)
			movers := []int{0, n / 2, n - 1, r.Intn(n), 0, r.Intn(n), n - 1}
			for _, u := range movers {
				askAllPrep(t, fmt.Sprintf("%T n=%d", g, n), g, s, u, r)
			}
		}
	}
}

// TestDeltaPrepAcrossMutations: the same mover right after each mutation
// of the network — an edge added at the mover, an edge removed away from
// it (which changes G−u itself), a CopyFrom, and a move applied and undone
// (a new version of the same network) — on the scratch that scanned it
// before.
func TestDeltaPrepAcrossMutations(t *testing.T) {
	for _, n := range prepSizes {
		r := rand.New(rand.NewSource(int64(3 * n)))
		g := prepGraph(n, r)
		other := prepGraph(n, r)
		s := NewScratch(n)
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
				for v := 0; v < n; v++ {
					if nb := g.NeighborList(v, nil); v != u && len(nb) > 0 && nb[len(nb)-1] != u {
						g.RemoveEdge(v, nb[len(nb)-1])
						return
					}
				}
			}},
			{"CopyFrom", func(int) { g.CopyFrom(other) }},
			{"apply-undo", func(u int) {
				if nb := g.NeighborList(u, nil); len(nb) > 0 {
					Apply(g, Move{Agent: u, Drop: nb[:1]}).Undo()
				}
			}},
		}
		for round := 0; round < 2; round++ {
			for _, m := range mutations {
				u := r.Intn(n)
				where := fmt.Sprintf("n=%d round %d %s", n, round, m.name)
				askAllPrep(t, where+" (before)", g, s, u, r)
				m.do(u)
				askAllPrep(t, where, g, s, u, r)
			}
			other = prepGraph(n, r)
		}
	}
}

// TestDeltaPrepAcrossGraphs: two networks that differ in an edge away from
// the mover, at one AdjVersion, scanned alternately on one scratch: only
// the graph's identity tells their preparations apart.
func TestDeltaPrepAcrossGraphs(t *testing.T) {
	for _, n := range prepSizes {
		ra, rb := rand.New(rand.NewSource(int64(5*n))), rand.New(rand.NewSource(int64(5*n)))
		a, b := prepGraph(n, ra), prepGraph(n, rb)
		var away []graph.Edge
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
		r := rand.New(rand.NewSource(int64(n)))
		s := NewScratch(n)
		games := prepGames(n)
		for i := 0; i < 40; i++ {
			for _, g := range []*graph.Graph{a, b} {
				gm := games[r.Intn(len(games))]
				askPrep(t, fmt.Sprintf("n=%d graph %p", n, g), g, s, gm, 0, prepModes[r.Intn(len(prepModes))], r.Intn(3))
			}
		}
	}
}
