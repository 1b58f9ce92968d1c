package graph

import (
	"fmt"
	"testing"
)

// checkRows fails the test unless every row of rs and its aggregates equal
// a fresh BFS of g from the row's source.
func checkRows(t *testing.T, g Store, rs *Rows, when string) {
	t.Helper()
	ref := make([]int32, g.N())
	s := NewBFSScratch(g.N())
	for i := 0; i < rs.K(); i++ {
		res := g.BFS(rs.src[i], ref, s)
		if row := rs.Row(i); !equal32(row, ref) {
			for v := range ref {
				if row[v] != ref[v] {
					t.Fatalf("%s: %T row %d (source %d): d[%d] = %d, BFS says %d",
						when, g, i, rs.src[i], v, row[v], ref[v])
				}
			}
		}
		if got := rs.Result(i); got != res {
			t.Fatalf("%s: %T row %d (source %d): aggregates %+v, BFS says %+v",
				when, g, i, rs.src[i], got, res)
		}
	}
}

// scriptEdit is one agent move of an edit script: the edges {agent,x},
// x ∈ drop, are removed and {agent,y}, y ∈ add, inserted, as the games'
// moves are applied.
type scriptEdit struct {
	agent     int
	drop, add []int
}

// decodeEdit turns the script byte op into a move of agent u valid on g,
// its choices drawn from r; ok is false when u has no move of that kind.
// The kinds are the moves the games make — swaps, leaf swaps, single drops
// and adds, multi-edge strategy changes — plus a cut that drops every edge
// of u, or, at an isolated u, reconnects it by up to three edges.
func decodeEdit(g *Graph, op byte, u int, r *lcg) (e scriptEdit, ok bool) {
	n := g.N()
	pick := func(s []int) int { return s[r.intn(len(s))] }
	// some returns up to k distinct elements of s from a random start.
	some := func(s []int, k int) (out []int) {
		at := r.intn(len(s) + 1)
		for i := 0; i < min(k, len(s)); i++ {
			out = append(out, s[(at+i)%len(s)])
		}
		return out
	}
	if op%6 == 1 {
		// Leaf swap: the first leaf from u on moves its one edge.
		for i := 0; i < n && g.Degree(u) != 1; i++ {
			u = (u + 1) % n
		}
	}
	e.agent = u
	nbrs := g.NeighborList(u, nil)
	var non []int
	for v := 0; v < n; v++ {
		if v != u && !g.HasEdge(u, v) {
			non = append(non, v)
		}
	}
	switch op % 6 {
	case 0, 1:
		if len(nbrs) == 0 || len(non) == 0 || (op%6 == 1 && len(nbrs) != 1) {
			return e, false
		}
		e.drop, e.add = []int{pick(nbrs)}, []int{pick(non)}
	case 2:
		if len(nbrs) == 0 {
			return e, false
		}
		e.drop = []int{pick(nbrs)}
	case 3:
		if len(non) == 0 {
			return e, false
		}
		e.add = []int{pick(non)}
	case 4:
		e.drop, e.add = some(nbrs, 2), some(non, 2)
	case 5:
		if len(nbrs) > 0 {
			e.drop = nbrs
		} else {
			e.add = some(non, 1+r.intn(3))
		}
	}
	return e, len(e.drop)+len(e.add) > 0
}

// FuzzIncrementalDistances runs random edit scripts on both backends and
// carries one all-sources Rows and one k-landmark Landmarks per backend
// across the whole script: after every edit, every row and its sum,
// eccentricity and reach must equal a fresh BFS. Scripts mix swaps, leaf
// swaps, single drops and adds and multi-edge moves, and cut the network
// and reconnect it; sizes cross the dense backend's one-word limit.
func FuzzIncrementalDistances(f *testing.F) {
	f.Add(int64(1), 12, uint8(2), []byte{0, 3, 1, 5, 2, 7, 3, 1, 4, 9, 0, 4})
	f.Add(int64(2), 64, uint8(4), []byte{0, 9, 0, 33, 1, 2, 4, 60, 0, 12, 2, 5, 0, 40})
	f.Add(int64(3), 65, uint8(3), []byte{0, 64, 1, 0, 0, 3, 4, 64, 3, 17, 0, 8, 1, 30})
	f.Add(int64(4), 20, uint8(1), []byte{5, 3, 0, 7, 5, 3, 2, 11, 5, 11, 3, 4, 5, 3})
	f.Add(int64(5), 70, uint8(6), []byte{2, 1, 2, 2, 2, 3, 5, 9, 0, 9, 5, 9, 3, 30})
	f.Add(int64(6), 130, uint8(8), []byte{0, 1, 4, 77, 5, 128, 0, 100, 5, 128, 1, 12})
	f.Add(int64(7), 2, uint8(1), []byte{2, 0, 3, 1, 5, 0, 5, 0, 4, 1})
	f.Add(int64(8), 1, uint8(1), []byte{0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, seed int64, n int, k uint8, script []byte) {
		n = 1 + (n%130+130)%130
		if len(script) > 2*128 {
			script = script[:2*128]
		}
		r := lcg(seed)
		g, sp := New(n), NewSparse(n)
		if n > 1 {
			g, sp = randomPair(n, n/4, &r)
		}
		stores := []Store{g, sp}
		var all [2]*Rows
		var lms [2]*Landmarks
		for i, st := range stores {
			all[i] = new(Rows)
			all[i].SearchAll(st, nil)
			lms[i] = BuildLandmarks(st, 1+int(k)%9, nil)
			checkRows(t, st, all[i], "build")
			checkRows(t, st, &lms[i].Rows, "landmark build")
		}
		for at := 0; at+1 < len(script); at += 2 {
			e, ok := decodeEdit(g, script[at], int(script[at+1])%n, &r)
			if !ok {
				continue
			}
			when := fmt.Sprintf("edit %d (%+v)", at/2, e)
			for i, st := range stores {
				for _, x := range e.drop {
					st.RemoveEdge(e.agent, x)
				}
				for _, y := range e.add {
					st.AddEdge(e.agent, y)
				}
				all[i].Apply(st, e.agent, e.drop, e.add)
				lms[i].Apply(st, e.agent, e.drop, e.add)
				checkRows(t, st, all[i], when)
				checkRows(t, st, &lms[i].Rows, "landmark "+when)
				if lms[i].Complete() != st.Connected() {
					t.Fatalf("%s: %T landmarks report complete=%v on a network with connected=%v",
						when, st, lms[i].Complete(), st.Connected())
				}
			}
		}
	})
}
