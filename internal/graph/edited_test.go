package graph

import (
	"testing"
)

// BFSEdited searches the network a strategy change would produce without
// producing it. These tests pin it against the mutating reference — apply
// the change to a copy, search, undo — on both backends, on both sides of
// the one-word boundary, from the mover and from other sources, and pin
// that the search itself leaves no trace on the graph.

// countingObserver counts the mutation callbacks it receives.
type countingObserver struct{ calls int }

func (o *countingObserver) EdgeAdded(owner, v int)    { o.calls++ }
func (o *countingObserver) EdgeRemoved(owner, v int)  { o.calls++ }
func (o *countingObserver) OwnerChanged(owner, v int) { o.calls++ }

// randomEdit draws a mover u with a random subset of its neighbours to
// drop and a random subset of its non-neighbours to add.
func randomEdit(g Store, r *lcg) (u int, drop, add []int) {
	n := g.N()
	u = r.intn(n)
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		if g.HasEdge(u, v) {
			if r.intn(3) == 0 {
				drop = append(drop, v)
			}
		} else if r.intn(4) == 0 {
			add = append(add, v)
		}
	}
	return u, drop, add
}

// applyEdit performs the edit on g and returns its undo.
func applyEdit(g Store, u int, drop, add []int) func() {
	owners := make([]int, len(drop))
	for i, x := range drop {
		owners[i] = g.Owner(u, x)
		g.RemoveEdge(u, x)
	}
	for _, y := range add {
		g.AddEdge(u, y)
	}
	return func() {
		for _, y := range add {
			g.RemoveEdge(u, y)
		}
		for i, x := range drop {
			if owners[i] == u {
				g.AddEdge(u, x)
			} else {
				g.AddEdge(x, u)
			}
		}
	}
}

// checkEdited compares g.BFSEdited from src with BFS on ref, a copy of g
// with the edit applied, and checks that g saw no mutation.
func checkEdited(t *testing.T, g, ref Store, src, u int, drop, add []int) {
	t.Helper()
	n := g.N()
	obs := &countingObserver{}
	g.SetObserver(obs)
	defer g.SetObserver(nil)
	ver := g.AdjVersion()
	s, rs := NewBFSScratch(n), NewBFSScratch(n)
	got, want := make([]int32, n), make([]int32, n)
	gr := g.BFSEdited(src, u, drop, add, got, s)
	wr := ref.BFS(src, want, rs)
	if gr != wr || !equal32(got, want) {
		t.Fatalf("%T n=%d src=%d u=%d drop=%v add=%v: edited %+v %v, applied %+v %v",
			g, n, src, u, drop, add, gr, got, wr, want)
	}
	if ar := g.BFSEdited(src, u, drop, add, nil, s); ar != wr {
		t.Fatalf("%T n=%d src=%d u=%d: aggregate-only edited search %+v, applied %+v", g, n, src, u, ar, wr)
	}
	if g.AdjVersion() != ver || obs.calls != 0 {
		t.Fatalf("%T: edited search mutated the graph: version %d -> %d, %d observer calls",
			g, ver, g.AdjVersion(), obs.calls)
	}
}

func TestBFSEditedMatchesApply(t *testing.T) {
	for _, n := range []int{2, 3, 10, 31, 63, 64, 65, 100, 130} {
		for _, extra := range []int{0, n / 3, 2 * n} {
			r := lcg(int64(100*n + extra))
			g, sp := randomPair(n, extra, &r)
			// Cut a few tree edges so that disconnected networks are
			// searched too.
			if extra == 0 {
				applyScript(g, sp, []byte{1, byte(r.intn(n)), byte(r.intn(n)), 1, byte(r.intn(n)), byte(r.intn(n))})
			}
			for trial := 0; trial < 12; trial++ {
				u, drop, add := randomEdit(g, &r)
				refs := []Store{g.Clone(), NewSparseFrom(g)}
				for i, st := range []Store{g, sp} {
					undo := applyEdit(refs[i], u, drop, add)
					for _, src := range []int{u, r.intn(n), (u + 1) % n} {
						checkEdited(t, st, refs[i], src, u, drop, add)
					}
					undo()
				}
			}
		}
	}
}

// bounded reports whether got is a valid BFSEditedTargets result under b
// for a target whose exact result is want: want itself, or the zero
// BFSResult of a cut when want's cost could not be kept — short of n
// vertices, or a Sum or Ecc at or past a non-zero bound.
func bounded(got, want BFSResult, n int, b Bound) bool {
	if got == want {
		return true
	}
	return got == BFSResult{} &&
		(want.Reached < n || b.Sum != 0 && want.Sum >= b.Sum || b.Ecc != 0 && want.Ecc >= b.Ecc)
}

// randomBound returns a bound for a BFSEditedTargets call whose exact
// results are want, chosen by the bits of pick: none; a SUM bound, a MAX
// bound or both, one below, at or one above a random result's value, so
// that the cut rule is met on both sides; an eccentricity bound of 1,
// which no result on two or more vertices stays below; or one past every
// depth.
func randomBound(want []BFSResult, n int, pick uint64) Bound {
	var ref BFSResult
	if len(want) > 0 {
		ref = want[pick>>8%uint64(len(want))]
	}
	off := int64(pick>>4%3) - 1
	sum, ecc := max(1, ref.Sum+off), max(1, ref.Ecc+int32(off))
	switch pick % 8 {
	case 0:
		return Bound{}
	case 1, 2:
		return Bound{Sum: sum}
	case 3, 4:
		return Bound{Ecc: ecc}
	case 5:
		return Bound{Sum: sum, Ecc: ecc}
	case 6:
		return Bound{Ecc: 1}
	}
	return Bound{Ecc: int32(n) + 1 + int32(pick>>16%64)}
}

// TestBFSEditedTargetsBound runs BFSEditedTargets under bounds around its
// exact results — one below, at and one above the Sum and the Ecc of
// several targets, both at once, an Ecc of 1 and bounds past every depth —
// on both sides of ballMinN and beyond one word, on connected and
// disconnected networks of both backends, and requires every result to
// be exact or a cut of a cost that could not be kept (bounded). The exact
// results come from BFSEdited with a distance row, which never reads the
// balls. It also requires the cuts to happen where they save work: MAX
// cuts on the ball path, SUM and MAX cuts in the one-word searches below
// it.
func TestBFSEditedTargetsBound(t *testing.T) {
	type path struct{ name, kind string }
	cuts := map[path]int{}
	for _, n := range []int{2, 7, 10, ballMinN - 1, ballMinN, 33, 64, 70} {
		for _, extra := range []int{0, n / 2, 2 * n} {
			r := lcg(int64(31*n + extra))
			g, sp := randomPair(n, extra, &r)
			if extra == 0 {
				// Cut tree edges: some results are disconnected.
				applyScript(g, sp, []byte{1, byte(r.intn(n)), byte(r.intn(n)), 1, byte(r.intn(n)), byte(r.intn(n))})
			}
			s := NewBFSScratch(n)
			dist := make([]int32, n)
			want, got := make([]BFSResult, n), make([]BFSResult, n)
			for u := 0; u < n; u += 1 + n/24 {
				targets := g.NonNeighborList(u, nil)
				want, got := want[:len(targets)], got[:len(targets)]
				drops := [][]int{nil}
				for _, x := range g.NeighborList(u, nil) {
					drops = append(drops, []int{x})
				}
				for _, drop := range drops {
					for i, y := range targets {
						want[i] = g.BFSEdited(u, u, drop, []int{y}, dist, s)
					}
					bounds := []Bound{{}, {Ecc: 1}, {Sum: 1}, {Ecc: int32(n) + 2}, {Sum: 1 << 40}}
					for k := 0; k < 3 && len(want) > 0; k++ {
						ref := want[r.intn(len(want))]
						for off := int64(-1); off <= 1; off++ {
							bounds = append(bounds, Bound{Sum: max(1, ref.Sum+off)}, Bound{Ecc: max(1, ref.Ecc+int32(off))},
								Bound{Sum: max(1, ref.Sum+off), Ecc: max(1, ref.Ecc+int32(off))})
						}
					}
					for _, b := range bounds {
						for _, st := range []Store{g, sp} {
							st.BFSEditedTargets(u, drop, targets, b, got, s)
							for i, y := range targets {
								if !bounded(got[i], want[i], n, b) {
									t.Fatalf("%T n=%d u=%d drop=%v target %d bound %+v: got %+v, exact %+v on %v",
										st, n, u, drop, y, b, got[i], want[i], g)
								}
								if got[i] != want[i] && st == Store(g) {
									p := path{"one-word search", "sum"}
									if n >= ballMinN {
										p.name = "ball"
									}
									if b.Ecc != 0 {
										p.kind = "max"
									}
									cuts[p]++
								}
							}
						}
					}
				}
			}
		}
	}
	for _, p := range []path{{"ball", "max"}, {"one-word search", "sum"}, {"one-word search", "max"}} {
		if cuts[p] == 0 {
			t.Errorf("no %s bound cut a target on the %s path: %v", p.kind, p.name, cuts)
		}
	}
	if c := cuts[path{"ball", "sum"}]; c != 0 {
		t.Errorf("the ball path cut %d targets under a SUM bound alone, which it does not apply", c)
	}
}

// TestBFSEditedConcurrent searches one shared network from many goroutines
// at once; under -race it proves the search read-only.
func TestBFSEditedConcurrent(t *testing.T) {
	for _, n := range []int{12, 90} {
		r := lcg(int64(n))
		g, sp := randomPair(n, n, &r)
		for _, st := range []Store{g, sp} {
			done := make(chan BFSResult, 4)
			for w := 0; w < 4; w++ {
				go func(w int) {
					s := NewBFSScratch(n)
					var last BFSResult
					for i := 0; i < 50; i++ {
						u := (w + i) % n
						nb := st.NeighborList(u, nil)
						last = st.BFSEdited((u+i)%n, u, nb[:1], nil, nil, s)
					}
					done <- last
				}(w)
			}
			for w := 0; w < 4; w++ {
				<-done
			}
		}
	}
}

// searchSink keeps the benchmarked searches from being optimized away.
var searchSink BFSResult

// benchSearch times single-source searches from every vertex in turn on a
// random connected graph with about 1.5n edges: plain BFS (the one-word
// path up to n = 64), the multi-word bitset loop forced, and the edited
// search of a swap of the source.
func benchSearch(b *testing.B, n int, mode string) {
	r := lcg(int64(n))
	g, _ := randomPair(n, n/2, &r)
	s := NewBFSScratch(n)
	swaps := make([][2]int, n)
	for u := range swaps {
		y := (u + n/2) % n
		for g.HasEdge(u, y) || y == u {
			y = (y + 1) % n
		}
		swaps[u] = [2]int{g.NeighborList(u, nil)[0], y}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		switch mode {
		case "bfs":
			searchSink = g.BFS(src, nil, s)
		case "bits":
			searchSink = g.bfsBits(src, -1, nil, nil, s)
		case "edited":
			sw := &swaps[src]
			searchSink = g.BFSEdited(src, src, sw[0:1], sw[1:2], nil, s)
		}
	}
}

func BenchmarkBFS10(b *testing.B)        { benchSearch(b, 10, "bfs") }
func BenchmarkBFSBits10(b *testing.B)    { benchSearch(b, 10, "bits") }
func BenchmarkBFSEdited10(b *testing.B)  { benchSearch(b, 10, "edited") }
func BenchmarkBFS50(b *testing.B)        { benchSearch(b, 50, "bfs") }
func BenchmarkBFSBits50(b *testing.B)    { benchSearch(b, 50, "bits") }
func BenchmarkBFSEdited50(b *testing.B)  { benchSearch(b, 50, "edited") }
func BenchmarkBFS100(b *testing.B)       { benchSearch(b, 100, "bfs") }
func BenchmarkBFSEdited100(b *testing.B) { benchSearch(b, 100, "edited") }
