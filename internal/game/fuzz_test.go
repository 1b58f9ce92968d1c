package game

import (
	"fmt"
	"math/rand"
	"testing"

	"ncg/internal/graph"
)

// decodeBRCase decodes a fuzz input into an owned network on 1..66 agents
// (both sides of the one-word search boundary at 64), one of SG, ASG and
// GBG under SUM or MAX, a GBG edge price, and an optional host graph that
// the swapped-in and bought edges must belong to. Byte 0 sizes the
// network; byte 1 picks the game from its value mod 6 and the host from
// the rest: none when byte1/6 is even, otherwise a host holding each pair
// with probability 1/4, 2/4, 3/4 or 1 by byte1/12 mod 4, drawn with bytes
// 1 and 3 as seed. Byte 2 picks the price, byte 3 seeds an optional
// spanning tree (odd values leave it out, so disconnected networks are
// common), and every later byte pair adds an edge owned by its first
// endpoint. The host is returned as a nil Store when there is none.
func decodeBRCase(data []byte) (*graph.Graph, Game, graph.Store) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := 1 + int(data[0])%66
	kind := DistKind(data[1] % 2)
	alpha := NewAlpha(int64(1+data[2]%9), int64(1+data[2]/9%3))
	var host graph.Store
	if data[1]/6%2 == 1 {
		h := graph.New(n)
		r := rand.New(rand.NewSource(int64(data[1])<<8 | int64(data[3])))
		keep := int(data[1] / 12 % 4)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(4) <= keep {
					h.AddEdge(u, v)
				}
			}
		}
		host = h
	}
	gm := []Game{NewSwapHost(kind, host), NewAsymSwapHost(kind, host), NewGreedyBuyHost(kind, alpha, host)}[data[1]/2%3]
	g := graph.New(n)
	if data[3]%2 == 0 {
		r := rand.New(rand.NewSource(int64(data[3])))
		for v := 1; v < n; v++ {
			if p := r.Intn(v); r.Intn(2) == 0 {
				g.AddEdge(v, p)
			} else {
				g.AddEdge(p, v)
			}
		}
	}
	for i := 4; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g, gm, host
}

// bruteCandidates lists u's candidate moves under gm on the host graph
// (nil: the complete one) in the order the scans offer them: swaps of SG
// (any incident edge) and ASG (owned edges) with drops outermost; for the
// GBG the deletions of owned edges, then their swaps, then the additions.
// Swapped-in and added edges are host edges; deletions are not limited.
func bruteCandidates(g *graph.Graph, gm Game, host graph.Store, u int) []Move {
	var nbrs, owned, targets []int
	for v := 0; v < g.N(); v++ {
		switch {
		case v == u:
		case g.HasEdge(u, v):
			nbrs = append(nbrs, v)
			if g.Owns(u, v) {
				owned = append(owned, v)
			}
		case host == nil || host.HasEdge(u, v):
			targets = append(targets, v)
		}
	}
	var ms []Move
	swaps := func(drops []int) {
		for _, x := range drops {
			for _, y := range targets {
				ms = append(ms, Move{Agent: u, Drop: []int{x}, Add: []int{y}})
			}
		}
	}
	switch gm.(type) {
	case *Swap:
		swaps(nbrs)
	case *AsymSwap:
		swaps(owned)
	case *GreedyBuy:
		for _, x := range owned {
			ms = append(ms, Move{Agent: u, Drop: []int{x}})
		}
		swaps(owned)
		for _, y := range targets {
			ms = append(ms, Move{Agent: u, Add: []int{y}})
		}
	}
	return ms
}

// bruteForce scores every candidate of u by apply, Cost, undo, and sorts
// them with bruteQueries.
func bruteForce(g *graph.Graph, gm Game, host graph.Store, u int, s *Scratch) (improving, best []Move, bestCost Cost) {
	ms := bruteCandidates(g, gm, host, u)
	costs := make([]Cost, len(ms))
	for i, m := range ms {
		ap := Apply(g, m)
		costs[i] = gm.Cost(g, u, s)
		ap.Undo()
	}
	return bruteQueries(ms, costs, gm.Cost(g, u, s), gm.Alpha())
}

// bruteQueries answers the queries from every candidate's exact cost: it
// returns the strictly improving candidates and, if there are any, the
// candidates at the least cost with that cost (the first one attaining
// it, as ties under alpha may differ in their parts); otherwise no best
// moves and the current cost cur.
func bruteQueries(ms []Move, costs []Cost, cur Cost, a Alpha) (improving, best []Move, bestCost Cost) {
	min := -1
	for i, m := range ms {
		if costs[i].Less(cur, a) {
			improving = append(improving, m)
		}
		if min < 0 || costs[i].Less(costs[min], a) {
			min = i
		}
	}
	if min < 0 || !costs[min].Less(cur, a) {
		return improving, nil, cur
	}
	for i, m := range ms {
		if costs[i].Cmp(costs[min], a) == 0 {
			best = append(best, m)
		}
	}
	return improving, best, costs[min]
}

// siblingGame returns gm's game on the same host under the other
// distance kind.
func siblingGame(gm Game, host graph.Store) Game {
	kind := Sum
	if gm.DistKind() == Sum {
		kind = Max
	}
	switch g := gm.(type) {
	case *Swap:
		return NewSwapHost(kind, host)
	case *AsymSwap:
		return NewAsymSwapHost(kind, host)
	case *GreedyBuy:
		return NewGreedyBuyHost(kind, g.Alpha(), host)
	}
	panic("no sibling for " + gm.Name())
}

// FuzzBestResponse requires HasImproving, ImprovingMoves and BestMoves of
// SG, ASG and GBG, under SUM and MAX, with and without a host graph, to
// equal the apply-Cost-undo brute force, in every scan mode: delta scans without an oracle, with the exact
// oracle, with warmed all-sources sums (the SUM leaf scores), with k
// landmarks (k = 1..10 from byte 2), and the naive scans; every mode runs
// on the dense network and on its CSR copy (graph.NewSparseFrom), the
// brute force on the dense one. One scratch serves every query, so the
// scans meet the delta preparation kept for their mover: warm from the
// previous query, from a scan of the same game under the other distance
// kind made just before, from the other backend, and stale after an edge
// away from the last checked agent changes, when that agent is checked
// again.
func FuzzBestResponse(f *testing.F) {
	f.Add([]byte{9, 0, 0, 0})
	f.Add([]byte{9, 3, 4, 1, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{11, 5, 13, 2, 0, 5, 3, 7})
	f.Add([]byte{63, 1, 0, 4, 10, 20})
	f.Add([]byte{64, 2, 7, 6, 1, 64, 63, 2})
	f.Add([]byte{65, 4, 20, 8, 64, 0, 3, 65})
	f.Add([]byte{65, 5, 2, 9, 0, 64, 64, 1, 2, 3})
	f.Add([]byte{66})
	f.Add([]byte{40, 1, 250, 0, 3, 17})
	f.Add([]byte{30, 3, 120, 2, 5, 9, 9, 21})
	// Host graphs: SG, ASG and GBG under both kinds, at every host
	// density, on both sides of the ball and one-word size limits.
	f.Add([]byte{9, 6, 0, 0})
	f.Add([]byte{12, 23, 5, 2, 0, 5, 3, 7})
	f.Add([]byte{24, 9, 4, 1, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{16, 8, 3, 4, 0, 15, 2, 9})
	f.Add([]byte{30, 18, 40, 2, 5, 9, 9, 21})
	f.Add([]byte{40, 11, 250, 0, 3, 17})
	f.Add([]byte{64, 31, 7, 6, 1, 64, 63, 2})
	f.Add([]byte{65, 10, 13, 4, 64, 0, 3, 65})
	f.Add([]byte{20, 42, 2, 8, 0, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, gm, host := decodeBRCase(data)
		sp := graph.NewSparseFrom(g)
		k := 1
		if len(data) > 2 {
			k += int(data[2]) / 27
		}
		n := g.N()
		s := NewScratch(n)
		sibling := siblingGame(gm, host)
		type mode struct {
			name string
			gm   Game
			arm  func(st graph.Store)
		}
		modes := []mode{
			{"delta", gm, func(graph.Store) {}},
			{"oracle", gm, func(graph.Store) { s.SetDistOracle(newTestOracle(g)) }},
			{"sums", gm, func(st graph.Store) { AllCosts(st, gm, s, nil) }},
			{"landmark", gm, func(st graph.Store) { s.SetLandmarks(graph.BuildLandmarks(st, k, nil)) }},
			{"naive", Naive(gm), func(graph.Store) {}},
		}
		check := func(u int) {
			improving, best, bestCost := bruteForce(g, gm, host, u, s)
			for _, st := range []graph.Store{g, sp} {
				for _, m := range modes {
					where := fmt.Sprintf("%s/%s on %T", gm.Name(), m.name, st)
					s.SetDistOracle(nil)
					s.SetLandmarks(nil)
					m.arm(st)
					sibling.HasImproving(st, u, s)
					if got := m.gm.HasImproving(st, u, s); got != (len(improving) > 0) {
						t.Fatalf("%s agent %d on %v: HasImproving %v, brute force %d improving moves",
							where, u, g, got, len(improving))
					}
					m.arm(st)
					if got := m.gm.ImprovingMoves(st, u, s, nil); !movesEqual(got, improving) {
						t.Fatalf("%s agent %d on %v: ImprovingMoves %v, brute force %v",
							where, u, g, got, improving)
					}
					m.arm(st)
					got, c := m.gm.BestMoves(st, u, s, nil)
					if c != bestCost || !movesEqual(got, best) {
						t.Fatalf("%s agent %d on %v: BestMoves %v at %v, brute force %v at %v",
							where, u, g, got, c, best, bestCost)
					}
				}
			}
		}
		// Every agent on small networks, about a dozen spread over the
		// ids on large ones, so that a run covers many networks.
		last := 0
		for u := 0; u < n; u += 1 + n/12 {
			check(u)
			last = u
		}
		if n < 3 {
			return
		}
		// Toggle an edge away from the last checked agent on both copies,
		// which changes its G−u, and check that agent again on the same
		// scratch.
		a, b := (last+1)%n, (last+2)%n
		for _, st := range []graph.Store{g, sp} {
			if st.HasEdge(a, b) {
				st.RemoveEdge(a, b)
			} else {
				st.AddEdge(a, b)
			}
		}
		check(last)
	})
}

// bruteStrategies scores every strategy change of u in the Buy Game or the
// bilateral game by apply, Cost, undo, in the scans' mask order over the
// candidate set, and sorts the feasible ones with bruteQueries. A
// bilateral change is feasible when no new neighbour's cost rises.
func bruteStrategies(g *graph.Graph, gm Game, u int, s *Scratch) (improving, best []Move, bestCost Cost) {
	_, bilateral := gm.(*Bilateral)
	var cands []int
	curMask := 0
	for v := 0; v < g.N(); v++ {
		if v == u || !bilateral && g.HasEdge(u, v) && !g.Owns(u, v) {
			continue
		}
		if g.HasEdge(u, v) {
			curMask |= 1 << len(cands)
		}
		cands = append(cands, v)
	}
	var ms []Move
	var costs []Cost
	for mask := 0; mask < 1<<len(cands); mask++ {
		if mask == curMask {
			continue
		}
		m := Move{Agent: u}
		for i, v := range cands {
			switch in, was := mask>>i&1 != 0, curMask>>i&1 != 0; {
			case was && !in:
				m.Drop = append(m.Drop, v)
			case in && !was:
				m.Add = append(m.Add, v)
			}
		}
		pre := make([]Cost, len(m.Add))
		for i, v := range m.Add {
			pre[i] = gm.Cost(g, v, s)
		}
		ap := Apply(g, m)
		c := gm.Cost(g, u, s)
		feasible := true
		for i, v := range m.Add {
			if bilateral && pre[i].Less(gm.Cost(g, v, s), gm.Alpha()) {
				feasible = false
			}
		}
		ap.Undo()
		if feasible {
			ms, costs = append(ms, m), append(costs, c)
		}
	}
	return bruteQueries(ms, costs, gm.Cost(g, u, s), gm.Alpha())
}

// TestExhaustiveScansMatchBruteForce: the Buy and bilateral scans, which
// score every strategy by a read-only search and check bilateral consent
// the same way, answer all three queries exactly like the apply-Cost-undo
// brute force, on networks of up to seven agents, a third of them
// disconnected, under several edge prices.
func TestExhaustiveScansMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 24; trial++ {
		g := randomDeltaGraph(2+r.Intn(6), r)
		s := NewScratch(g.N())
		for _, kind := range []DistKind{Sum, Max} {
			for _, alpha := range []Alpha{NewAlpha(1, 2), AlphaInt(2), NewAlpha(7, 2), AlphaInt(6)} {
				for _, gm := range []Game{NewBuy(kind, alpha), NewBilateral(kind, alpha)} {
					for u := 0; u < g.N(); u++ {
						improving, best, bestCost := bruteStrategies(g, gm, u, s)
						if got := gm.HasImproving(g, u, s); got != (len(improving) > 0) {
							t.Fatalf("%s α=%v agent %d on %v: HasImproving %v, brute force %v", gm.Name(), alpha, u, g, got, improving)
						}
						if got := gm.ImprovingMoves(g, u, s, nil); !movesEqual(got, improving) {
							t.Fatalf("%s α=%v agent %d on %v: ImprovingMoves %v, brute force %v", gm.Name(), alpha, u, g, got, improving)
						}
						if got, c := gm.BestMoves(g, u, s, nil); c != bestCost || !movesEqual(got, best) {
							t.Fatalf("%s α=%v agent %d on %v: BestMoves %v at %v, brute force %v at %v",
								gm.Name(), alpha, u, g, got, c, best, bestCost)
						}
					}
				}
			}
		}
	}
}
