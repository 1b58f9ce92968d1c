package game

import (
	"math/rand"
	"reflect"
	"slices"
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

// FuzzLandmarkBound checks the filter's soundness on landmark rows carried
// by Landmarks.Apply, on both backends: on a random connected network
// whose landmark rows were repaired through a random prefix of swaps,
// drops, adds and multi-edge moves (the network then reconnected by
// single adds), no target bound of a random mover u, armed by the probe
// or by the full scan, may exceed u's exact best post-swap distance cost
// to that target — the minimum over u's drops by apply, Cost, undo —
// under SUM or MAX.
func FuzzLandmarkBound(f *testing.F) {
	f.Add(int64(1), 12, uint8(2), []byte{0, 3, 1, 5, 2, 7, 3, 1})
	f.Add(int64(2), 40, uint8(5), []byte{1, 9, 1, 10, 1, 11, 3, 12, 0, 4})
	f.Add(int64(3), 66, uint8(3), []byte{3, 64, 1, 0, 0, 3, 2, 65, 3, 17, 0, 8})
	f.Add(int64(4), 2, uint8(1), []byte{1, 0})
	f.Fuzz(func(t *testing.T, seed int64, n int, k uint8, script []byte) {
		n = 2 + (n%79+79)%79
		if len(script) > 2*64 {
			script = script[:2*64]
		}
		r := rand.New(rand.NewSource(seed))
		g := lmRandConnected(n, n/3, r)
		stores := []graph.Store{g, graph.NewSparseFrom(g)}
		var lms [2]*graph.Landmarks
		for i, st := range stores {
			lms[i] = graph.BuildLandmarks(st, 1+int(k)%8, nil)
		}
		// move applies an agent move to both backends and their rows.
		move := func(u int, drop, add []int) {
			for i, st := range stores {
				ApplyMove(st, Move{Agent: u, Drop: drop, Add: add})
				lms[i].Apply(st, u, drop, add)
			}
		}
		for at := 0; at+1 < len(script); at += 2 {
			u := int(script[at+1]) % n
			nbrs := g.NeighborList(u, nil)
			var non []int
			for v := 0; v < n; v++ {
				if v != u && !g.HasEdge(u, v) {
					non = append(non, v)
				}
			}
			// op 0 swaps, 1 drops, 2 adds, 3 moves two edges each way.
			var drop, add []int
			op := script[at] % 4
			if op != 2 && len(nbrs) > 0 {
				drop = []int{nbrs[r.Intn(len(nbrs))]}
			}
			if op != 1 && len(non) > 0 {
				add = []int{non[r.Intn(len(non))]}
			}
			if op == 3 && len(nbrs) > 1 && len(non) > 1 {
				drop, add = nbrs[:2], non[len(non)-2:]
			}
			if len(drop)+len(add) > 0 {
				move(u, drop, add)
			}
		}
		for dist := g.Distances(0); ; dist = g.Distances(0) {
			v := slices.Index(dist, graph.Unreachable)
			if v < 0 {
				break
			}
			move(v, nil, []int{0})
		}
		u := r.Intn(n)
		probe := r.Intn(2) == 0
		for i, st := range stores {
			for _, kind := range []DistKind{Sum, Max} {
				b := &base{kind: kind, alpha: AlphaInt(1)}
				gm := NewSwap(kind)
				s, ref := NewScratch(n), NewScratch(n)
				s.SetLandmarks(lms[i])
				s.buf = st.NeighborList(u, s.buf[:0])
				s.buf2 = b.swapTargets(st, u, s.buf2[:0])
				s.deltaBegin(st, u)
				armed := false
				if probe {
					armed = s.lmProbe(st, u, kind)
				} else {
					s.deltaInit(st, u)
					armed = s.lmArm(u, kind)
				}
				if !armed {
					t.Fatalf("%T kind=%v: the filter failed to arm on a connected network", st, kind)
				}
				for _, y := range s.buf2 {
					bound := s.lmTargetBound(y, kind)
					best := DistInf
					for _, x := range s.buf {
						ap := Apply(st, Move{Agent: u, Drop: []int{x}, Add: []int{y}})
						best = min(best, gm.Cost(st, u, ref).Dist)
						ap.Undo()
					}
					if bound > best {
						t.Fatalf("%T kind=%v u=%d +%d (probe=%v): bound %d > exact best post-swap cost %d",
							st, kind, u, y, probe, bound, best)
					}
				}
			}
		}
	})
}
