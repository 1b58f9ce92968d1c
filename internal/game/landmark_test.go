package game

import (
	"math/rand"
	"reflect"
	"testing"

	"ncg/internal/graph"
)

// lmRandConnected builds a random connected graph: a random attachment tree
// plus extra random edges.
func lmRandConnected(n, extra int, r *rand.Rand) *graph.Graph {
	g := graph.New(n)
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

// TestLandmarkBoundSound checks the filter's core invariant: for every
// target y and every drop x, the landmark bound never exceeds the exact
// post-swap distance cost — so pruning on it can never lose a move.
func TestLandmarkBoundSound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, kind := range []DistKind{Sum, Max} {
		for _, k := range []int{1, 3, 8} {
			for _, n := range []int{12, 33} {
				g := lmRandConnected(n, n/2, r)
				lm := graph.BuildLandmarks(g, k, nil)
				s := NewScratch(n)
				s.SetLandmarks(lm)
				b := &base{kind: kind, alpha: AlphaInt(1)}
				for trial := 0; trial < 6; trial++ {
					u := r.Intn(n)
					s.buf = g.Neighbors(u).Elements(s.buf[:0])
					s.buf2 = b.swapTargets(g, u, s.buf2[:0])
					if len(s.buf) == 0 || len(s.buf2) == 0 {
						continue
					}
					s.deltaBegin(g, u)
					s.deltaInit(g, u)
					if !s.lmArm(u, kind) {
						t.Fatalf("filter failed to arm on a connected graph")
					}
					for _, y := range s.buf2 {
						bound := s.lmTargetBound(y, kind)
						for _, x := range s.buf {
							exact := s.deltaSwapDist(g, u, x, y, kind)
							if bound > exact {
								t.Fatalf("kind=%v n=%d k=%d u=%d swap(-%d,+%d): bound %d > exact %d",
									kind, n, k, u, x, y, bound, exact)
							}
						}
					}
				}
			}
		}
	}
}

// TestLandmarkProbeBoundSound exercises the probe-armed path (no deltaInit
// beforehand) used by HasImproving.
func TestLandmarkProbeBoundSound(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, kind := range []DistKind{Sum, Max} {
		n := 40
		g := lmRandConnected(n, 15, r)
		lm := graph.BuildLandmarks(g, 5, nil)
		s := NewScratch(n)
		s.SetLandmarks(lm)
		b := &base{kind: kind, alpha: AlphaInt(1)}
		for trial := 0; trial < 8; trial++ {
			u := r.Intn(n)
			s.deltaBegin(g, u)
			if !s.lmProbe(g, u, kind) {
				t.Fatal("probe failed to arm on a connected graph")
			}
			s.buf = g.Neighbors(u).Elements(s.buf[:0])
			s.buf2 = b.swapTargets(g, u, s.buf2[:0])
			s.deltaInit(g, u)
			for _, y := range s.buf2 {
				bound := s.lmTargetBound(y, kind)
				for _, x := range s.buf {
					exact := s.deltaSwapDist(g, u, x, y, kind)
					if bound > exact {
						t.Fatalf("kind=%v u=%d swap(-%d,+%d): bound %d > exact %d",
							kind, u, x, y, bound, exact)
					}
				}
			}
		}
	}
}

// TestLandmarkScanEquality pins the bit-identity contract: with the filter
// installed, HasImproving / ImprovingMoves / BestMoves return exactly what
// the unfiltered scan returns, for both swap games and both cost kinds —
// also when the scratch holds warm all-sources aggregates, which score SUM
// leaves from the sums instead.
func TestLandmarkScanEquality(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, kind := range []DistKind{Sum, Max} {
		for _, asym := range []bool{false, true} {
			var gm Game
			if asym {
				gm = NewAsymSwap(kind)
			} else {
				gm = NewSwap(kind)
			}
			for _, k := range []int{1, 2, 6, 40} {
				n := 36
				g := lmRandConnected(n, 10, r)
				lm := graph.BuildLandmarks(g, k, nil)
				plain := NewScratch(n)
				filt := NewScratch(n)
				filt.SetLandmarks(lm)
				warm := NewScratch(n)
				warm.SetLandmarks(lm)
				for u := 0; u < n; u++ {
					for _, sc := range []*Scratch{filt, warm} {
						if sc == warm {
							AllCosts(g, gm, warm, nil)
						}
						if gm.HasImproving(g, u, plain) != gm.HasImproving(g, u, sc) {
							t.Fatalf("%s k=%d u=%d warm=%v: HasImproving differs", gm.Name(), k, u, sc == warm)
						}
						mp := cloneMoves(gm.ImprovingMoves(g, u, plain, nil))
						mf := cloneMoves(gm.ImprovingMoves(g, u, sc, nil))
						if !reflect.DeepEqual(mp, mf) {
							t.Fatalf("%s k=%d u=%d warm=%v: ImprovingMoves differ\nplain: %v\nfiltered: %v",
								gm.Name(), k, u, sc == warm, mp, mf)
						}
						bp, cp := gm.BestMoves(g, u, plain, nil)
						bf, cf := gm.BestMoves(g, u, sc, nil)
						if cp != cf || !reflect.DeepEqual(cloneMoves(bp), cloneMoves(bf)) {
							t.Fatalf("%s k=%d u=%d warm=%v: BestMoves differ (%v/%v vs %v/%v)",
								gm.Name(), k, u, sc == warm, bp, cp, bf, cf)
						}
					}
				}
			}
		}
	}
}

// TestLandmarkDisconnectedFallsBack: on a disconnected graph the filter must
// refuse to arm and the scans must still agree with the unfiltered ones.
func TestLandmarkDisconnectedFallsBack(t *testing.T) {
	g := graph.New(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	lm := graph.BuildLandmarks(g, 3, nil)
	if lm.Complete() {
		t.Fatal("disconnected graph reported complete")
	}
	gm := NewSwap(Sum)
	plain := NewScratch(8)
	filt := NewScratch(8)
	filt.SetLandmarks(lm)
	for u := 0; u < 8; u++ {
		bp, cp := gm.BestMoves(g, u, plain, nil)
		bf, cf := gm.BestMoves(g, u, filt, nil)
		if cp != cf || !reflect.DeepEqual(cloneMoves(bp), cloneMoves(bf)) {
			t.Fatalf("u=%d: BestMoves differ on disconnected graph", u)
		}
	}
}

func cloneMoves(ms []Move) []Move {
	out := make([]Move, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Clone())
	}
	return out
}
