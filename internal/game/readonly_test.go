package game

import (
	"math/rand"
	"sync"
	"testing"

	"ncg/internal/graph"
)

// Every game answers its queries without mutating the network: candidate
// costs come from searches of the edited network (movedCost), never from
// applying the candidate. These tests pin those costs against the mutating
// reference, pin that queries leave no trace on the graph, and run queries
// of one shared network concurrently.

// countingObserver counts the mutation callbacks it receives.
type countingObserver struct{ calls int }

func (o *countingObserver) EdgeAdded(owner, v int)    { o.calls++ }
func (o *countingObserver) EdgeRemoved(owner, v int)  { o.calls++ }
func (o *countingObserver) OwnerChanged(owner, v int) { o.calls++ }

// modelOf returns the edge-cost model of gm.
func modelOf(gm Game) costModel {
	switch gm.(type) {
	case *GreedyBuy, *Buy:
		return modelUnilateral
	case *Bilateral:
		return modelBilateral
	}
	return modelSwap
}

// subset returns the elements of xs selected by the bits of mask.
func subset(xs []int, mask int) []int {
	var out []int
	for i, x := range xs {
		if mask>>uint(i)&1 != 0 {
			out = append(out, x)
		}
	}
	return out
}

// TestMovedCostMatchesApply: for every strategy change of every agent u —
// every subset of its edges dropped together with every subset of its
// non-edges added, a superset of every game's candidates, the multi-swaps
// included — and every agent v, the read-only cost equals apply, Cost,
// undo, edge-cost halves included, under the cost model of each of the
// five games in both distance versions, on both backends. About a third of
// the networks are disconnected.
func TestMovedCostMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		dense := randomDeltaGraph(2+r.Intn(6), r)
		n := dense.N()
		for _, g := range []graph.Store{dense, graph.NewSparseFrom(dense)} {
			s := NewScratch(n)
			want := make([]Cost, n)
			for _, gm := range foldGames() {
				model := modelOf(gm)
				for u := 0; u < n; u++ {
					var nbrs, non []int
					for v := 0; v < n; v++ {
						if g.HasEdge(u, v) {
							nbrs = append(nbrs, v)
						} else if v != u {
							non = append(non, v)
						}
					}
					for dm := 0; dm < 1<<len(nbrs); dm++ {
						for am := 0; am < 1<<len(non); am++ {
							m := Move{Agent: u, Drop: subset(nbrs, dm), Add: subset(non, am)}
							ap := Apply(g, m)
							for v := range want {
								want[v] = gm.Cost(g, v, s)
							}
							ap.Undo()
							for v := range want {
								if got := movedCost(g, v, m, gm.DistKind(), model, s); got != want[v] {
									t.Fatalf("%s on %T %v: agent %d after %v costs %v read-only, %v applied",
										gm.Name(), g, dense, v, m, got, want[v])
								}
							}
						}
					}
				}
			}
		}
	}
}

// queryGames is foldGames plus the naive reference wraps of SG, ASG and
// GBG.
func queryGames() []Game {
	gs := foldGames()
	for _, gm := range foldGames() {
		if IsNaive(Naive(gm)) {
			gs = append(gs, Naive(gm))
		}
	}
	return gs
}

// allQueries runs every query of gm for every agent of g on s: the three
// game queries, the multi-swap scans of the swap games and the bilateral
// consent check of every improving move. It returns the best moves, cloned.
func allQueries(g graph.Store, gm Game, s *Scratch) [][]Move {
	var out [][]Move
	base := gm
	if ng, ok := gm.(naiveGame); ok {
		base = ng.Game
	}
	for u := 0; u < g.N(); u++ {
		gm.HasImproving(g, u, s)
		for _, m := range CloneMoves(gm.ImprovingMoves(g, u, s, nil)) {
			if bl, ok := base.(*Bilateral); ok {
				bl.Blocks(g, m, s)
			}
		}
		best, _ := gm.BestMoves(g, u, s, nil)
		out = append(out, CloneMoves(best))
		if UsesSwapScans(base) {
			MultiSwapImprovingMoves(base, g, u, s, 0)
			MultiSwapBest(base, g, u, s, 2)
		}
	}
	return out
}

// TestQueriesAreReadOnly: no query of any game fires the graph's observer
// or bumps its AdjVersion, on either backend, and queries of one shared
// network from several goroutines at once (one Scratch each) return the
// serial answers. Under -race this proves the scans read-only.
func TestQueriesAreReadOnly(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 6; trial++ {
		dense := randomDeltaGraph(3+r.Intn(6), r)
		n := dense.N()
		for _, g := range []graph.Store{dense, graph.NewSparseFrom(dense)} {
			for _, gm := range queryGames() {
				obs := &countingObserver{}
				g.SetObserver(obs)
				ver := g.AdjVersion()
				serial := allQueries(g, gm, NewScratch(n))
				if obs.calls != 0 || g.AdjVersion() != ver {
					t.Fatalf("%s on %T: queries fired %d observer calls, AdjVersion %d -> %d",
						gm.Name(), g, obs.calls, ver, g.AdjVersion())
				}
				g.SetObserver(nil)
				var wg sync.WaitGroup
				got := make([][][]Move, 3)
				for w := range got {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						got[w] = allQueries(g, gm, NewScratch(n))
					}(w)
				}
				wg.Wait()
				for w := range got {
					for u := range serial {
						if !movesEqual(got[w][u], serial[u]) {
							t.Fatalf("%s on %T agent %d: concurrent best moves %v, serial %v",
								gm.Name(), g, u, got[w][u], serial[u])
						}
					}
				}
			}
		}
	}
}
