package dynamics

import (
	"fmt"
	"math/rand"
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// plainPolicy hides a policy's engine fast path, forcing Run through the
// serial Pick interface, so tests can compare the two paths.
type plainPolicy struct{ p Policy }

func (pp plainPolicy) Name() string { return pp.p.Name() }

func (pp plainPolicy) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	return pp.p.Pick(g, gm, s, r)
}

// traceOf runs one process and records its full trajectory.
func traceOf(mk func() *graph.Graph, cfg Config) (Result, []string, *graph.Graph) {
	var steps []string
	g := mk()
	cfg.OnStep = func(step, mover int, mv game.Move, sg graph.Store) {
		steps = append(steps, fmt.Sprintf("%d:%d:%v:%x", step, mover, mv, sg.(*graph.Graph).Hash()))
	}
	res := Run(g, cfg)
	return res, steps, g
}

// engineRunConfigs spans games, kinds, policies and tie rules whose seeded
// traces must not depend on the probing mode.
func engineRunConfigs() []Config {
	return []Config{
		{Game: game.NewSwap(game.Max), Policy: MaxCostDeterministic{}, Tie: TieFirst},
		{Game: game.NewSwap(game.Sum), Policy: MaxCost{}, Tie: TieRandom, Seed: 5},
		{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Tie: TieLast, Seed: 9},
		{Game: game.NewAsymSwap(game.Max), Policy: MinIndex{}, Tie: TieFirst},
		{Game: game.NewGreedyBuy(game.Sum, game.NewAlpha(24, 4)), Policy: MaxCost{}, Tie: TieRandom, Seed: 3},
		{Game: game.NewGreedyBuy(game.Max, game.NewAlpha(24, 10)), Policy: MaxCostDeterministic{}, Tie: TieLast},
		{Game: game.NewGreedyBuy(game.Sum, game.NewAlpha(24, 1)), Policy: Random{}, Tie: TieRandom, Seed: 7},
	}
}

// TestParallelRunIsBitIdentical: for every configuration, the trace of a
// seeded run must be step-for-step identical between serial probing, the
// engine fast path, and parallel probing at several worker counts.
func TestParallelRunIsBitIdentical(t *testing.T) {
	mk := func() *graph.Graph { return gen.BudgetNetwork(24, 3, gen.NewRand(11)) }
	for ci, cfg := range engineRunConfigs() {
		base := cfg
		base.Policy = plainPolicy{cfg.Policy}
		wantRes, wantSteps, wantG := traceOf(mk, base)
		for _, workers := range []int{0, 1, 2, 4, 7} {
			c := cfg
			c.Workers = workers
			res, steps, g := traceOf(mk, c)
			if !resultsEqual(res, wantRes) {
				t.Fatalf("config %d workers %d: result %+v, want %+v", ci, workers, res, wantRes)
			}
			if len(steps) != len(wantSteps) {
				t.Fatalf("config %d workers %d: %d steps, want %d", ci, workers, len(steps), len(wantSteps))
			}
			for i := range steps {
				if steps[i] != wantSteps[i] {
					t.Fatalf("config %d workers %d step %d: %s, want %s", ci, workers, i, steps[i], wantSteps[i])
				}
			}
			if !g.Equal(wantG) {
				t.Fatalf("config %d workers %d: final networks differ", ci, workers)
			}
		}
	}
}

// Result.Kinds is a slice, so Result values cannot be compared with ==;
// compare the scalar fields and the kind trajectory explicitly.
func resultsEqual(a, b Result) bool {
	if a.Steps != b.Steps || a.Converged != b.Converged || a.Cycled != b.Cycled ||
		a.CycleLen != b.CycleLen || a.MoveKinds != b.MoveKinds || len(a.Kinds) != len(b.Kinds) {
		return false
	}
	for i := range a.Kinds {
		if a.Kinds[i] != b.Kinds[i] {
			return false
		}
	}
	return true
}

// TestCostCacheMatchesBFS: after every step of a run, the engine's
// incrementally maintained distance matrix must equal a from-scratch BFS
// matrix of the current network.
func TestCostCacheMatchesBFS(t *testing.T) {
	games := []game.Game{
		game.NewSwap(game.Sum),
		game.NewAsymSwap(game.Max),
		game.NewGreedyBuy(game.Sum, game.NewAlpha(18, 4)),
		game.NewGreedyBuy(game.Max, game.NewAlpha(18, 10)),
	}
	for gi, gm := range games {
		g := gen.RandomConnected(18, 30, gen.NewRand(int64(gi)+2))
		e := newEngine(g, gm, 1)
		check := func(where string) {
			for u := 0; u < g.N(); u++ {
				want := gm.Cost(g, u, game.NewScratch(g.N()))
				if got := e.cost(u); got != want {
					t.Fatalf("%s %s: cached cost of %d = %v, want %v", gm.Name(), where, u, got, want)
				}
			}
			for u := 0; u < g.N(); u++ {
				row := e.cache.row(u)
				for v, d := range g.Distances(u) {
					if row[v] != d {
						t.Fatalf("%s %s: d(%d,%d) = %d, want %d", gm.Name(), where, u, v, row[v], d)
					}
				}
			}
		}
		check("initial")
		s := game.NewScratch(g.N())
		r := rand.New(rand.NewSource(99))
		var moves []game.Move
		for step := 0; step < 40; step++ {
			mover := MinIndex{}.Pick(g, gm, s, r)
			if mover < 0 {
				break
			}
			moves, _ = gm.BestMoves(g, mover, s, moves[:0])
			mv := moves[r.Intn(len(moves))].Clone()
			e.commit(mv)
			check(fmt.Sprintf("step %d (%v)", step, mv))
		}
	}
}

// TestCostCacheMultiDrop: Buy and bilateral strategy changes drop and add
// several edges in one move, exercising the cache's multi-edge removal
// fallback, which the single-drop games above never reach.
func TestCostCacheMultiDrop(t *testing.T) {
	games := []game.Game{
		game.NewBuy(game.Sum, game.NewAlpha(3, 2)),
		game.NewBuy(game.Max, game.AlphaInt(1)),
		game.NewBilateral(game.Sum, game.NewAlpha(3, 2)),
	}
	for gi, gm := range games {
		g := gen.RandomConnected(7, 9, gen.NewRand(int64(gi)+5))
		e := newEngine(g, gm, 1)
		if e.cost(0).Infinite() {
			t.Fatal("connected start")
		}
		s := game.NewScratch(g.N())
		r := rand.New(rand.NewSource(3))
		var moves []game.Move
		for step := 0; step < 15; step++ {
			mover := MinIndex{}.Pick(g, gm, s, r)
			if mover < 0 {
				break
			}
			moves, _ = gm.BestMoves(g, mover, s, moves[:0])
			mv := moves[r.Intn(len(moves))].Clone()
			e.commit(mv)
			for u := 0; u < g.N(); u++ {
				want := gm.Cost(g, u, game.NewScratch(g.N()))
				if got := e.cost(u); got != want {
					t.Fatalf("%s step %d (%v): cost of %d = %v, want %v", gm.Name(), step, mv, u, got, want)
				}
				row := e.cache.row(u)
				for v, d := range g.Distances(u) {
					if row[v] != d {
						t.Fatalf("%s step %d (%v): d(%d,%d) = %d, want %d", gm.Name(), step, mv, u, v, row[v], d)
					}
				}
			}
		}
	}
}

// TestBuyRunIsBitIdentical: a Buy-game run through the engine path (cost
// cache + multi-drop updates) must match the engine-less reference.
func TestBuyRunIsBitIdentical(t *testing.T) {
	mk := func() *graph.Graph { return gen.RandomConnected(8, 12, gen.NewRand(21)) }
	cfg := Config{Game: game.NewBuy(game.Sum, game.NewAlpha(8, 3)), Policy: MaxCost{}, Tie: TieRandom, Seed: 13}
	base := cfg
	base.Policy = plainPolicy{cfg.Policy}
	wantRes, wantSteps, wantG := traceOf(mk, base)
	res, steps, g := traceOf(mk, cfg)
	if !resultsEqual(res, wantRes) || len(steps) != len(wantSteps) || !g.Equal(wantG) {
		t.Fatalf("engine run diverged: %+v vs %+v", res, wantRes)
	}
	for i := range steps {
		if steps[i] != wantSteps[i] {
			t.Fatalf("step %d: %s, want %s", i, steps[i], wantSteps[i])
		}
	}
}

// TestCostCacheDisconnection: moves that disconnect or reconnect the
// network (GBG deletions and buys) keep the cache exact across the
// Unreachable transitions.
func TestCostCacheDisconnection(t *testing.T) {
	g := graph.Path(6)
	gm := game.NewGreedyBuy(game.Sum, game.AlphaInt(1))
	e := newEngine(g, gm, 1)
	if e.cost(0).Infinite() {
		t.Fatal("path is connected")
	}
	// Delete the middle edge {2,3} (owned by 2 in graph.Path), then re-add.
	steps := []game.Move{
		{Agent: 2, Drop: []int{3}},
		{Agent: 2, Add: []int{3}},
		{Agent: 0, Drop: []int{1}},
		{Agent: 0, Add: []int{4}},
	}
	for _, mv := range steps {
		e.commit(mv)
		for u := 0; u < g.N(); u++ {
			want := gm.Cost(g, u, game.NewScratch(g.N()))
			if got := e.cost(u); got != want {
				t.Fatalf("after %v: cost of %d = %v, want %v", mv, u, got, want)
			}
		}
	}
}

// TestUnhappyParallelMatchesSerial: the engine's wave-parallel unhappy-set
// collection must equal the serial scan.
func TestUnhappyParallelMatchesSerial(t *testing.T) {
	g := gen.BudgetNetwork(20, 2, gen.NewRand(4))
	gm := game.NewAsymSwap(game.Sum)
	s := game.NewScratch(20)
	want := Unhappy(g, gm, s)
	for _, workers := range []int{1, 2, 3, 8} {
		e := newEngine(g, gm, workers)
		got := e.unhappy(nil)
		if len(got) != len(want) {
			t.Fatalf("workers %d: unhappy %v, want %v", workers, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers %d: unhappy %v, want %v", workers, got, want)
			}
		}
	}
}

// TestNaiveFallbackPreservesTrace pins the fully deterministic MAX-SG path
// trace (Theorem 2.11 setting) across the engine's naive-fallback
// pre-check: the step counts below were recorded on the always-delta
// engine, and the fallback must reproduce them exactly.
func TestNaiveFallbackPreservesTrace(t *testing.T) {
	want := map[int]int{32: 111, 64: 299, 128: 743}
	for n, steps := range want {
		g := graph.Path(n)
		res := Run(g, Config{Game: game.NewSwap(game.Max), Policy: MaxCostDeterministic{}, Tie: TieFirst})
		if !res.Converged || res.Steps != steps {
			t.Errorf("n=%d: steps=%d converged=%v, want %d converged", n, res.Steps, res.Converged, steps)
		}
	}
}

// TestPreferNaiveScanRegime checks the fallback triggers exactly in the
// documented regimes: tiny networks, and MAX cost on a tree under a swap
// variant.
func TestPreferNaiveScanRegime(t *testing.T) {
	path := graph.Path(64)
	cyc := graph.Cycle(64)
	small := graph.Path(8)
	cases := []struct {
		gm   game.Game
		g    *graph.Graph
		want bool
	}{
		{game.NewSwap(game.Max), path, true},
		{game.NewAsymSwap(game.Max), path, true},
		{game.Naive(game.NewSwap(game.Max)), path, true},
		{game.NewSwap(game.Sum), path, false},
		{game.NewSwap(game.Max), cyc, false},
		{game.NewGreedyBuy(game.Max, game.AlphaInt(2)), path, false},
		// The small-network regime covers every game with a reference
		// scan; games without one (exhaustive Buy, bilateral) never route.
		{game.NewSwap(game.Sum), small, true},
		{game.NewGreedyBuy(game.Sum, game.AlphaInt(2)), small, true},
		{game.NewBuy(game.Sum, game.AlphaInt(2)), small, false},
		{game.NewBilateral(game.Sum, game.AlphaInt(2)), small, false},
	}
	for i, c := range cases {
		if got := game.PreferNaiveScan(c.gm, c.g); got != c.want {
			t.Errorf("case %d (%s): PreferNaiveScan = %v, want %v", i, c.gm.Name(), got, c.want)
		}
	}
}
