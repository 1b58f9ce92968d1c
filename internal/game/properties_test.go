package game

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ncg/internal/graph"
)

// randomOwnedGraph builds a random connected graph with random ownership.
func randomOwnedGraph(n int, extra int, r *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		p := r.Intn(i)
		if r.Intn(2) == 0 {
			g.AddEdge(i, p)
		} else {
			g.AddEdge(p, i)
		}
	}
	for e := 0; e < extra; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestASGMovesAreSGMoves: every improving ASG move is an improving SG move
// (the ASG restricts the strategy space, Section 1.1), for both distance
// kinds.
func TestASGMovesAreSGMoves(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, kind := range []DistKind{Sum, Max} {
		sg := NewSwap(kind)
		ag := NewAsymSwap(kind)
		s := NewScratch(16)
		for trial := 0; trial < 25; trial++ {
			g := randomOwnedGraph(16, r.Intn(8), r)
			for u := 0; u < 16; u++ {
				asgMoves := ag.ImprovingMoves(g, u, s, nil)
				sgMoves := sg.ImprovingMoves(g, u, s, nil)
				for _, am := range asgMoves {
					found := false
					for _, sm := range sgMoves {
						if am.Equal(sm) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%v: ASG move %v missing from SG moves", kind, am)
					}
				}
			}
		}
	}
}

// TestGBGBestNeverWorseThanASG: the GBG extends the ASG with buys and
// deletes, so its best response cost is never worse for the same agent
// when the agent owns at least one edge... note the cost models differ
// (the ASG has no edge cost), so compare attainable DISTANCE costs of pure
// swap moves instead: every improving ASG swap appears among GBG moves.
func TestGBGBestNeverWorseThanASG(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ag := NewAsymSwap(Sum)
	gb := NewGreedyBuy(Sum, AlphaInt(1000000)) // buys effectively disabled
	s := NewScratch(14)
	for trial := 0; trial < 25; trial++ {
		g := randomOwnedGraph(14, r.Intn(6), r)
		for u := 0; u < 14; u++ {
			// Clone: the GBG scans below reuse the scratch move pool.
			for _, am := range CloneMoves(ag.ImprovingMoves(g, u, s, nil)) {
				ims := gb.ImprovingMoves(g, u, s, nil)
				found := false
				for _, gm := range ims {
					if am.Equal(gm) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("ASG swap %v missing from GBG improving moves", am)
				}
			}
		}
	}
}

// TestApplyUndoRoundTrip: applying and undoing random moves restores the
// graph exactly, including ownership.
func TestApplyUndoRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomOwnedGraph(12, r.Intn(10), r)
		before := g.Clone()
		for k := 0; k < 20; k++ {
			u := r.Intn(12)
			// Random applicable move: drop a random subset of owned
			// neighbours, add a random subset of non-neighbours.
			var drop, add []int
			g.OwnedNeighbors(u).ForEach(func(v int) {
				if r.Intn(2) == 0 {
					drop = append(drop, v)
				}
			})
			for v := 0; v < 12; v++ {
				if v != u && !g.HasEdge(u, v) && r.Intn(4) == 0 {
					add = append(add, v)
				}
			}
			ap := Apply(g, Move{Agent: u, Drop: drop, Add: add})
			ap.Undo()
			if !g.Equal(before) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// foldGames returns the ten games of the best-response fold contract: SG,
// ASG, GBG, BG and bilateral, each under SUM and MAX.
func foldGames() []Game {
	var gs []Game
	for _, kind := range []DistKind{Sum, Max} {
		gs = append(gs, NewSwap(kind), NewAsymSwap(kind), NewGreedyBuy(kind, NewAlpha(3, 2)),
			NewBuy(kind, AlphaInt(2)), NewBilateral(kind, AlphaInt(4)))
	}
	return gs
}

// foldCase is one game on one network under one scan mode. arm installs
// the mode on s; callers run it before every query, since warmed sums go
// stale with each apply/undo of a cost check.
type foldCase struct {
	name string
	g    *graph.Graph
	gm   Game
	s    *Scratch
	arm  func()
}

// forEachFoldCase calls fn for every game of foldGames under every scan
// mode that applies: no oracle, the exact testOracle, and warmed
// all-sources sums (AllCosts first, so SUM leaves take the leaf-score
// path); the swap games on connected networks also run with a complete
// graph.Landmarks, alone and with warmed sums. Networks have 4..10 agents,
// a third of them disconnected; one connected n = 128 network, on which BG
// and bilateral are skipped, runs the batched landmark scores.
func forEachFoldCase(t *testing.T, seed int64, fn func(c foldCase)) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var nets []*graph.Graph
	for i := 0; i < 8; i++ {
		nets = append(nets, randomDeltaGraph(4+r.Intn(7), r))
	}
	nets = append(nets, randomOwnedGraph(128, 24, r))
	type mode struct {
		name string
		orc  DistOracle
		lm   *graph.Landmarks
		sums bool
	}
	for _, g := range nets {
		n := g.N()
		s := NewScratch(n)
		modes := []mode{{"plain", nil, nil, false}, {"oracle", newTestOracle(g), nil, false}, {"sums", nil, nil, true}}
		var lmModes []mode
		if g.Connected() {
			lm := graph.BuildLandmarks(g, 4, nil)
			lmModes = []mode{{"landmarks", nil, lm, false}, {"landmarks+sums", nil, lm, true}}
		}
		for _, gm := range foldGames() {
			swap := UsesSwapScans(gm)
			if !swap && n > 10 {
				continue
			}
			ms := modes
			if swap {
				ms = append(ms[:len(ms):len(ms)], lmModes...)
			}
			for _, m := range ms {
				arm := func() {
					s.SetDistOracle(m.orc)
					s.SetLandmarks(m.lm)
					if m.sums {
						AllCosts(g, gm, s, nil)
					}
				}
				fn(foldCase{fmt.Sprintf("%s/%s n=%d", gm.Name(), m.name, n), g, gm, s, arm})
			}
		}
	}
}

// TestHasImprovingConsistentWithBestMoves: HasImproving, BestMoves and
// ImprovingMoves must agree on whether an agent is unhappy, for every game
// under every scan mode.
func TestHasImprovingConsistentWithBestMoves(t *testing.T) {
	forEachFoldCase(t, 47, func(c foldCase) {
		for u := 0; u < c.g.N(); u++ {
			c.arm()
			has := c.gm.HasImproving(c.g, u, c.s)
			c.arm()
			best, _ := c.gm.BestMoves(c.g, u, c.s, nil)
			if has != (len(best) > 0) {
				t.Fatalf("%s agent %d: HasImproving=%v but %d best moves", c.name, u, has, len(best))
			}
			c.arm()
			ims := c.gm.ImprovingMoves(c.g, u, c.s, nil)
			if has != (len(ims) > 0) {
				t.Fatalf("%s agent %d: HasImproving=%v but %d improving moves", c.name, u, has, len(ims))
			}
		}
	})
}

// TestBestMovesAreImprovingMoves: every best move appears among the
// improving moves and achieves their minimal cost, and conversely every
// improving move whose exact post-move cost (apply, Cost, undo) equals the
// best cost is a best move: BestMoves is exactly that subsequence of
// ImprovingMoves, in order. A happy agent's returned cost is the agent's
// current cost.
func TestBestMovesAreImprovingMoves(t *testing.T) {
	forEachFoldCase(t, 53, func(c foldCase) {
		g, gm, s := c.g, c.gm, c.s
		alpha := gm.Alpha()
		for u := 0; u < g.N(); u++ {
			cur := gm.Cost(g, u, s)
			c.arm()
			// Clone: the ImprovingMoves scan reuses the move pool.
			best, bc := gm.BestMoves(g, u, s, nil)
			best = CloneMoves(best)
			c.arm()
			ims := CloneMoves(gm.ImprovingMoves(g, u, s, nil))
			if len(best) == 0 && bc != cur {
				t.Fatalf("%s agent %d: happy agent's best cost %v, current %v", c.name, u, bc, cur)
			}
			for _, bm := range best {
				found := false
				for _, im := range ims {
					if bm.Equal(im) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s agent %d: best move %v not improving", c.name, u, bm)
				}
			}
			var attain []Move
			for _, im := range ims {
				ap := Apply(g, im)
				ic := gm.Cost(g, u, s)
				ap.Undo()
				if !ic.Less(cur, alpha) {
					t.Fatalf("%s agent %d: improving move %v costs %v, current %v", c.name, u, im, ic, cur)
				}
				if ic.Less(bc, alpha) {
					t.Fatalf("%s agent %d: improving move %v (%v) beats best %v", c.name, u, im, ic, bc)
				}
				if ic.Cmp(bc, alpha) == 0 {
					attain = append(attain, im)
				}
			}
			if !movesEqual(attain, best) {
				t.Fatalf("%s agent %d: improving moves at the best cost %v are %v, best moves %v",
					c.name, u, bc, attain, best)
			}
		}
	})
}

// TestEveryQueryOpensTheFold: every query of every game, bare and
// Naive-wrapped, runs through the best-response fold, so the fold's keep
// rule, early exit and pool copy are the only ones. Each query must leave
// the scratch's fold naming that query and agent. SG, ASG and GBG run on
// both sides of the one-word boundary (dense networks of at most 64
// agents take the naive scans in production); BG and bilateral, whose
// exhaustive scans are for small candidate sets, on a seven-agent network.
func TestEveryQueryOpensTheFold(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	tiny, small, large := randomDeltaGraph(7, r), randomDeltaGraph(30, r), randomOwnedGraph(70, 20, r)
	for _, gm := range foldGames() {
		nets := []*graph.Graph{small, large}
		switch gm.(type) {
		case *Buy, *Bilateral:
			nets = []*graph.Graph{tiny}
		}
		for _, g := range nets {
			s := NewScratch(g.N())
			for _, wrapped := range []Game{gm, Naive(gm)} {
				for u := 1; u < g.N(); u += 1 + g.N()/8 {
					queries := []struct {
						q   query
						ask func()
					}{
						{probeQuery, func() { wrapped.HasImproving(g, u, s) }},
						{improvingQuery, func() { wrapped.ImprovingMoves(g, u, s, nil) }},
						{bestQuery, func() { wrapped.BestMoves(g, u, s, nil) }},
					}
					for _, c := range queries {
						s.fold = fold{q: -1, u: -1}
						c.ask()
						if s.fold.q != c.q || s.fold.u != u {
							t.Fatalf("%s (naive %v) agent %d on n=%d: query %d left the fold at query %d, agent %d",
								gm.Name(), IsNaive(wrapped), u, g.N(), c.q, s.fold.q, s.fold.u)
						}
					}
				}
			}
		}
	}
}

// TestDistLimitIsSound: a candidate at or past the fold's distance limit
// for its edge-cost halves is one the keep rule rejects, for every query,
// halves on either side of the reference's, infinite costs and fractional
// alphas; and when the halves equal the current cost's, a probe's limit is
// exact, so the scans skip no keepable move.
func TestDistLimitIsSound(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	cost := func() Cost {
		if r.Intn(8) == 0 {
			return Cost{Halves: int64(r.Intn(6)), Dist: DistInf}
		}
		return Cost{Halves: int64(r.Intn(6)), Dist: int64(r.Intn(40))}
	}
	for i := 0; i < 20000; i++ {
		a := NewAlpha(1+int64(r.Intn(12)), 1+int64(r.Intn(4)))
		q := query(r.Intn(3))
		cur := cost()
		best := cur
		if q == bestQuery && r.Intn(2) == 0 {
			best = cost()
		}
		h := int64(r.Intn(6))
		f := fold{q: q, alpha: a, cur: cur, best: best, s: &Scratch{}}
		limit := f.distLimit(h)
		for _, d := range []int64{limit - 1, limit, limit + 1, limit + int64(r.Intn(30)), DistInf} {
			if d < 0 {
				continue
			}
			c := Cost{Halves: h, Dist: min(d, DistInf)}
			kept := f.keeps(c)
			f = fold{q: q, alpha: a, cur: cur, best: best, s: &Scratch{}}
			if d >= limit && kept {
				t.Fatalf("query %d, alpha %v, cur %v, best %v: %v sits at or past the limit %d, yet the keep rule keeps it", q, a, cur, best, c, limit)
			}
			if q == probeQuery && h == cur.Halves && d < limit && !kept {
				t.Fatalf("probe, alpha %v, cur %v: %v sits below the limit %d, yet the keep rule rejects it", a, cur, c, limit)
			}
		}
	}
}
