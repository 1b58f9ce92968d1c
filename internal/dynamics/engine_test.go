package dynamics

import (
	"fmt"
	"math/rand"
	"slices"
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
// engine fast path, and parallel probing at several worker counts. The
// starts cover both scan regimes of the swap games and the GBG — naive
// scans up to the one-word limit of 64 agents, delta scans with the cost
// cache's oracle above —
// and the exhaustive Buy and bilateral strategy spaces; every game's
// probes only read the graph, so all of them run in parallel waves.
func TestParallelRunIsBitIdentical(t *testing.T) {
	t.Parallel()
	budget := func(n, k int, seed int64) func() *graph.Graph {
		return func() *graph.Graph { return gen.BudgetNetwork(n, k, gen.NewRand(seed)) }
	}
	starts := []struct {
		name string
		mk   func() *graph.Graph
		cfgs []Config
	}{
		{"budget-24", budget(24, 3, 11), engineRunConfigs()},
		{"budget-72", budget(72, 3, 12), engineRunConfigs()},
		{"buy-7", budget(7, 2, 13), []Config{
			{Game: game.NewBuy(game.Sum, game.AlphaInt(2)), Policy: MaxCost{}, Tie: TieRandom, Seed: 4},
			{Game: game.NewBuy(game.Max, game.NewAlpha(1, 2)), Policy: MinIndex{}, Tie: TieLast},
		}},
		{"bilateral-8", budget(8, 2, 14), []Config{
			{Game: game.NewBilateral(game.Sum, game.AlphaInt(3)), Policy: MaxCost{}, Tie: TieRandom, Seed: 6},
			{Game: game.NewBilateral(game.Max, game.AlphaInt(1)), Policy: MinIndex{}, Tie: TieFirst},
		}},
	}
	for _, st := range starts {
		for ci, cfg := range st.cfgs {
			base := cfg
			base.Policy = plainPolicy{cfg.Policy}
			wantRes, wantSteps, wantG := traceOf(st.mk, base)
			if len(wantSteps) == 0 {
				t.Fatalf("%s config %d: the run makes no move", st.name, ci)
			}
			for _, workers := range []int{0, 1, 2, 4, 7} {
				c := cfg
				c.Workers = workers
				res, steps, g := traceOf(st.mk, c)
				if !resultsEqual(res, wantRes) {
					t.Fatalf("%s config %d workers %d: result %+v, want %+v", st.name, ci, workers, res, wantRes)
				}
				if len(steps) != len(wantSteps) {
					t.Fatalf("%s config %d workers %d: %d steps, want %d", st.name, ci, workers, len(steps), len(wantSteps))
				}
				for i := range steps {
					if steps[i] != wantSteps[i] {
						t.Fatalf("%s config %d workers %d step %d: %s, want %s", st.name, ci, workers, i, steps[i], wantSteps[i])
					}
				}
				if !g.Equal(wantG) {
					t.Fatalf("%s config %d workers %d: final networks differ", st.name, ci, workers)
				}
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

// backendsOf returns the dense start and its CSR copy, the two backends
// the engine's distance cache must serve alike.
func backendsOf(g *graph.Graph) []graph.Store {
	return []graph.Store{g, graph.NewSparseFrom(g)}
}

// checkCache compares every cached cost with the game's own Cost and every
// cached row with a fresh BFS of g.
func checkCache(t *testing.T, e *engine, g graph.Store, gm game.Game, where string) {
	t.Helper()
	n := g.N()
	ref := make([]int32, n)
	bfs := graph.NewBFSScratch(n)
	for u := 0; u < n; u++ {
		if want, got := gm.Cost(g, u, game.NewScratch(n)), e.cost(u); got != want {
			t.Fatalf("%s %T %s: cached cost of %d = %v, want %v", gm.Name(), g, where, u, got, want)
		}
		g.BFS(u, ref, bfs)
		for v, d := range e.cache.Row(u) {
			if d != ref[v] {
				t.Fatalf("%s %T %s: d(%d,%d) = %d, want %d", gm.Name(), g, where, u, v, d, ref[v])
			}
		}
	}
}

// TestCostCacheMatchesBFS: after every step of a run, the engine's
// incrementally maintained distance matrix must equal a from-scratch BFS
// matrix of the current network, on both backends.
func TestCostCacheMatchesBFS(t *testing.T) {
	games := []game.Game{
		game.NewSwap(game.Sum),
		game.NewAsymSwap(game.Max),
		game.NewGreedyBuy(game.Sum, game.NewAlpha(18, 4)),
		game.NewGreedyBuy(game.Max, game.NewAlpha(18, 10)),
	}
	for gi, gm := range games {
		for _, g := range backendsOf(gen.RandomConnected(18, 30, gen.NewRand(int64(gi)+2))) {
			e := newEngine(g, gm, 1)
			checkCache(t, e, g, gm, "initial")
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
				checkCache(t, e, g, gm, fmt.Sprintf("step %d (%v)", step, mv))
			}
		}
	}
}

// TestCostCacheMultiDrop: Buy and bilateral strategy changes drop and add
// several edges in one move, exercising the repair's multi-edge fallback,
// which the single-drop games above never reach.
func TestCostCacheMultiDrop(t *testing.T) {
	games := []game.Game{
		game.NewBuy(game.Sum, game.NewAlpha(3, 2)),
		game.NewBuy(game.Max, game.AlphaInt(1)),
		game.NewBilateral(game.Sum, game.NewAlpha(3, 2)),
	}
	for gi, gm := range games {
		for _, g := range backendsOf(gen.RandomConnected(7, 9, gen.NewRand(int64(gi)+5))) {
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
				checkCache(t, e, g, gm, fmt.Sprintf("step %d (%v)", step, mv))
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
// Unreachable transitions, on both backends.
func TestCostCacheDisconnection(t *testing.T) {
	gm := game.NewGreedyBuy(game.Sum, game.AlphaInt(1))
	for _, g := range backendsOf(graph.Path(6)) {
		e := newEngine(g, gm, 1)
		if e.cost(0).Infinite() {
			t.Fatal("path is connected")
		}
		// Delete the middle edge {2,3} (owned by 2 in graph.Path), then
		// re-add.
		steps := []game.Move{
			{Agent: 2, Drop: []int{3}},
			{Agent: 2, Add: []int{3}},
			{Agent: 0, Drop: []int{1}},
			{Agent: 0, Add: []int{4}},
		}
		for _, mv := range steps {
			e.commit(mv)
			checkCache(t, e, g, gm, fmt.Sprintf("after %v", mv))
		}
	}
}

// firstPickCheck is the random policy with one check at its first pick,
// before any probe: the engine must hold an exact distance cache of the
// start, which reset builds and installs as every scratch's oracle.
type firstPickCheck struct {
	t      *testing.T
	gm     game.Game
	picked *bool
}

func (p firstPickCheck) Name() string { return "random" }

func (p firstPickCheck) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	return Random{}.Pick(g, gm, s, r)
}

func (p firstPickCheck) pickEngine(e *engine, r *rand.Rand) int {
	if !*p.picked {
		*p.picked = true
		if e.cache == nil {
			p.t.Fatalf("%s: no distance oracle at the first probe", p.gm.Name())
		}
		checkCache(p.t, e, e.g, p.gm, "at the first probe")
	}
	return Random{}.pickEngine(e, r)
}

// TestOracleInstalledBeforeFirstProbe: a random-policy run reads no cost,
// yet on a 72-agent dense start (delta scans) its scans must have the
// exact cost cache as their oracle from the first probe on, and the run
// must play the reference's moves.
func TestOracleInstalledBeforeFirstProbe(t *testing.T) {
	games := []game.Game{game.NewSwap(game.Sum), game.NewGreedyBuy(game.Sum, game.NewAlpha(72, 4))}
	for i, gm := range games {
		start := gen.RandomConnected(72, 78, gen.NewRand(int64(5+i)))
		cfg := Config{Game: gm, Policy: Random{}, Tie: TieFirst, Seed: 11}
		want, wantSteps := refRun(start.Clone(), cfg)
		picked := false
		cfg.Policy = firstPickCheck{t, gm, &picked}
		var steps []string
		cfg.OnStep = func(step, mover int, mv game.Move, _ graph.Store) {
			steps = append(steps, fmt.Sprintf("%d:%d:%v", step, mover, mv))
		}
		got := Run(start.Clone(), cfg)
		if !picked || got.Steps == 0 {
			t.Fatalf("%s: the run picked %v and made %d moves", gm.Name(), picked, got.Steps)
		}
		sameResult(t, gm.Name(), want, got)
		if !slices.Equal(steps, wantSteps) {
			t.Fatalf("%s: moves %v, reference %v", gm.Name(), steps, wantSteps)
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
// documented regimes: dense networks of at most 64 agents (the one-word
// limit), and MAX cost on a tree under a swap variant on either backend.
func TestPreferNaiveScanRegime(t *testing.T) {
	path := graph.Path(65)
	cyc := graph.Cycle(65)
	small := graph.Path(8)
	word := graph.Cycle(64)
	cases := []struct {
		gm   game.Game
		g    graph.Store
		want bool
	}{
		{game.NewSwap(game.Max), path, true},
		{game.NewAsymSwap(game.Max), path, true},
		{game.Naive(game.NewSwap(game.Max)), path, true},
		{game.NewSwap(game.Sum), path, false},
		{game.NewSwap(game.Max), cyc, false},
		{game.NewGreedyBuy(game.Max, game.AlphaInt(2)), path, false},
		// The one-word regime covers every game with a reference scan up
		// to 64 agents; games without one (exhaustive Buy, bilateral)
		// never route.
		{game.NewSwap(game.Sum), small, true},
		{game.NewGreedyBuy(game.Sum, game.AlphaInt(2)), small, true},
		{game.NewBuy(game.Sum, game.AlphaInt(2)), small, false},
		{game.NewBilateral(game.Sum, game.AlphaInt(2)), small, false},
		{game.NewSwap(game.Sum), word, true},
		{game.NewSwap(game.Max), word, true},
		{game.NewAsymSwap(game.Sum), graph.Path(64), true},
		{game.NewGreedyBuy(game.Max, game.AlphaInt(2)), word, true},
		{game.NewBuy(game.Sum, game.AlphaInt(2)), word, false},
		{game.NewGreedyBuy(game.Max, game.AlphaInt(2)), cyc, false},
		{game.NewAsymSwap(game.Sum), cyc, false},
		// CSR networks have no one-word path: only the MAX-tree regime
		// routes them.
		{game.NewSwap(game.Sum), graph.NewSparseFrom(small), false},
		{game.NewSwap(game.Sum), graph.NewSparseFrom(word), false},
		{game.NewGreedyBuy(game.Max, game.AlphaInt(2)), graph.NewSparseFrom(word), false},
		{game.NewSwap(game.Max), graph.NewSparseFrom(small), true},
		{game.NewAsymSwap(game.Max), graph.NewSparseFrom(path), true},
		{game.NewSwap(game.Max), graph.NewSparseFrom(cyc), false},
	}
	for i, c := range cases {
		if got := game.PreferNaiveScan(c.gm, c.g); got != c.want {
			t.Errorf("case %d (%s, n=%d): PreferNaiveScan = %v, want %v", i, c.gm.Name(), c.g.N(), got, c.want)
		}
	}
}
