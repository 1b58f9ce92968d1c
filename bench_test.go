package ncg

// One benchmark per figure of the paper. Theory figures (2, 3, 4, 5, 6, 9,
// 10, 15, 16) benchmark the full machine-verification of their
// construction; Figure 1 benchmarks the trace it depicts; the empirical
// figures (7, 8, 11, 12, 13, 14) benchmark miniature versions of their
// sweeps (the full grids are regenerated by cmd/ncgsim). Additional
// micro-benchmarks cover the primitives that dominate all experiments.

import (
	"io"
	"math/rand"
	"testing"

	"ncg/internal/campaign"
	"ncg/internal/cycles"
	"ncg/internal/dynamics"
	"ncg/internal/ensemble"
	"ncg/internal/experiments"
	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

func benchVerify(b *testing.B, inst cycles.Instance) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := inst.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01PathTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.Path(64)
		res := dynamics.Run(g, dynamics.Config{
			Game:   game.NewSwap(game.Max),
			Policy: dynamics.MaxCostDeterministic{},
			Tie:    dynamics.TieFirst,
		})
		if !res.Converged {
			b.Fatal("no convergence")
		}
	}
}

func BenchmarkFig02VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig2MaxSG()) }

func BenchmarkFig03VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig3SumASG()) }

func BenchmarkFig06VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig6MaxASGUnitBudget()) }

func BenchmarkFig09VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig9SumBG()) }

func BenchmarkFig10VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig10MaxBG()) }

func BenchmarkFig15VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig15SumBilateral()) }

func BenchmarkFig16VerifyCycle(b *testing.B) { benchVerify(b, cycles.Fig16MaxBilateral()) }

func benchFigure(b *testing.B, num int) {
	opt := experiments.Options{Ns: []int{16}, Trials: 6, Seed: 1, Workers: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure(num, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07SumASG(b *testing.B)           { benchFigure(b, 7) }
func BenchmarkFig08MaxASG(b *testing.B)           { benchFigure(b, 8) }
func BenchmarkFig11SumGBG(b *testing.B)           { benchFigure(b, 11) }
func BenchmarkFig12SumGBGTopologies(b *testing.B) { benchFigure(b, 12) }
func BenchmarkFig13MaxGBG(b *testing.B)           { benchFigure(b, 13) }
func BenchmarkFig14MaxGBGTopologies(b *testing.B) { benchFigure(b, 14) }

// BenchmarkTheorem211PathMaxCost benchmarks the Theta(n log n) setting.
func BenchmarkTheorem211PathMaxCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.Path(128)
		dynamics.Run(g, dynamics.Config{
			Game:   game.NewSwap(game.Max),
			Policy: dynamics.MaxCostDeterministic{},
			Tie:    dynamics.TieFirst,
		})
	}
}

// BenchmarkTheorem51Explore benchmarks the exhaustive non-weak-acyclicity
// exploration of the bilateral construction (480 states, full strategy
// enumeration with consent checks).
func BenchmarkTheorem51Explore(b *testing.B) {
	gm := game.NewBilateral(game.Sum, cycles.Fig15Alpha)
	for i := 0; i < b.N; i++ {
		res, err := cycles.ExploreImproving(cycles.Fig15Start(), gm, 5000)
		if err != nil || res.StableReachable {
			b.Fatal("exploration changed behaviour")
		}
	}
}

// Micro-benchmarks.

func BenchmarkBFS100(b *testing.B) {
	g := gen.BudgetNetwork(100, 3, gen.NewRand(1))
	s := graph.NewBFSScratch(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i%100, nil, s)
	}
}

func BenchmarkBestResponseASG(b *testing.B) {
	g := gen.BudgetNetwork(60, 3, gen.NewRand(2))
	gm := game.NewAsymSwap(game.Sum)
	s := game.NewScratch(60)
	var moves []game.Move
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, _ = gm.BestMoves(g, i%60, s, moves[:0])
	}
}

func BenchmarkBestResponseGBG(b *testing.B) {
	g := gen.RandomConnected(60, 120, gen.NewRand(3))
	gm := game.NewGreedyBuy(game.Sum, game.NewAlpha(60, 4))
	s := game.NewScratch(60)
	var moves []game.Move
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, _ = gm.BestMoves(g, i%60, s, moves[:0])
	}
}

func BenchmarkBudgetNetworkGen(b *testing.B) {
	r := gen.NewRand(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.BudgetNetwork(100, 4, r)
	}
}

func BenchmarkIsomorphism(b *testing.B) {
	g := cycles.Fig15Start()
	states := cycles.Fig15SumBilateral().States()
	h := states[len(states)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !graph.Isomorphic(g, h) {
			b.Fatal("should be isomorphic")
		}
	}
}

// Before/after benchmarks of the delta-evaluated best-response engine
// (internal/game/delta.go) against the naive full-BFS reference path
// (game.Naive), at n in {64, 128, 256}. The DeltaScan/FullRun names are
// part of the CI performance trajectory: the bench job records their
// ns/op into BENCH_ensemble.json and diffs against BENCH_baseline.json.
// The MAX and n = 10 naive scans time the bounded target scoring of
// graph.Store.BFSEditedTargets: the ball path's reach test at n = 64, and
// the one-word searches that stop at the fold's distance limit at n = 10,
// the hunts' size, under SUM and under MAX.

// benchSwapBest scans BestMoves of every agent of a budget network once
// per iteration.
func benchSwapBest(b *testing.B, n int, kind game.DistKind, naive bool) {
	g := gen.BudgetNetwork(n, 3, gen.NewRand(1))
	var gm game.Game = game.NewAsymSwap(kind)
	if naive {
		gm = game.Naive(gm)
	}
	s := game.NewScratch(n)
	var moves []game.Move
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < n; u++ {
			moves, _ = gm.BestMoves(g, u, s, moves[:0])
		}
	}
}

func BenchmarkNaiveScanASG10(b *testing.B)    { benchSwapBest(b, 10, game.Sum, true) }
func BenchmarkNaiveScanMaxASG10(b *testing.B) { benchSwapBest(b, 10, game.Max, true) }
func BenchmarkDeltaScanASG64(b *testing.B)    { benchSwapBest(b, 64, game.Sum, false) }
func BenchmarkNaiveScanASG64(b *testing.B)    { benchSwapBest(b, 64, game.Sum, true) }
func BenchmarkNaiveScanMaxASG64(b *testing.B) { benchSwapBest(b, 64, game.Max, true) }
func BenchmarkDeltaScanASG128(b *testing.B)   { benchSwapBest(b, 128, game.Sum, false) }
func BenchmarkNaiveScanASG128(b *testing.B)   { benchSwapBest(b, 128, game.Sum, true) }
func BenchmarkDeltaScanASG256(b *testing.B)   { benchSwapBest(b, 256, game.Sum, false) }
func BenchmarkNaiveScanASG256(b *testing.B)   { benchSwapBest(b, 256, game.Sum, true) }

// benchGreedyBest is the GBG counterpart over a random connected network.
func benchGreedyBest(b *testing.B, n int, kind game.DistKind, naive bool) {
	g := gen.RandomConnected(n, 2*n, gen.NewRand(2))
	var gm game.Game = game.NewGreedyBuy(kind, game.NewAlpha(int64(n), 4))
	if naive {
		gm = game.Naive(gm)
	}
	s := game.NewScratch(n)
	var moves []game.Move
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < n; u++ {
			moves, _ = gm.BestMoves(g, u, s, moves[:0])
		}
	}
}

func BenchmarkDeltaScanGBG64(b *testing.B)    { benchGreedyBest(b, 64, game.Sum, false) }
func BenchmarkNaiveScanGBG64(b *testing.B)    { benchGreedyBest(b, 64, game.Sum, true) }
func BenchmarkNaiveScanMaxGBG64(b *testing.B) { benchGreedyBest(b, 64, game.Max, true) }
func BenchmarkDeltaScanGBG128(b *testing.B)   { benchGreedyBest(b, 128, game.Sum, false) }
func BenchmarkNaiveScanGBG128(b *testing.B)   { benchGreedyBest(b, 128, game.Sum, true) }
func BenchmarkDeltaScanGBG256(b *testing.B)   { benchGreedyBest(b, 256, game.Sum, false) }
func BenchmarkNaiveScanGBG256(b *testing.B)   { benchGreedyBest(b, 256, game.Sum, true) }

// plainPolicy hides a policy's engine fast path, so the naive benchmarks
// reproduce the pre-engine behaviour exactly: costs recomputed by BFS
// every step, serial probing, no distance oracle.
type plainPolicy struct{ p dynamics.Policy }

func (pp plainPolicy) Name() string { return pp.p.Name() }

func (pp plainPolicy) Pick(g graph.Store, gm game.Game, s *game.Scratch, r *rand.Rand) int {
	return pp.p.Pick(g, gm, s, r)
}

// benchConvergenceRun runs max-cost dynamics to the step limit on freshly
// generated networks, in engine (delta) or reference (naive) mode.
func benchConvergenceRun(b *testing.B, mk func(i int) *graph.Graph, gm game.Game, naive bool) {
	var pol dynamics.Policy = dynamics.MaxCost{}
	if naive {
		gm = game.Naive(gm)
		pol = plainPolicy{dynamics.MaxCost{}}
	}
	for i := 0; i < b.N; i++ {
		g := mk(i)
		dynamics.Run(g, dynamics.Config{Game: gm, Policy: pol, Seed: int64(i)})
	}
}

func budgetGen(n int) func(int) *graph.Graph {
	return func(i int) *graph.Graph { return gen.BudgetNetwork(n, 3, gen.NewRand(int64(i))) }
}

func connGen(n int) func(int) *graph.Graph {
	return func(i int) *graph.Graph { return gen.RandomConnected(n, 2*n, gen.NewRand(int64(i))) }
}

// Full convergence runs of the three delta-scanned games on the paper's
// initial-network ensembles, engine vs pre-engine reference.

func BenchmarkFullRunSGSum256(b *testing.B) {
	benchConvergenceRun(b, budgetGen(256), game.NewSwap(game.Sum), false)
}

func BenchmarkFullRunSGSumNaive256(b *testing.B) {
	benchConvergenceRun(b, budgetGen(256), game.NewSwap(game.Sum), true)
}

func BenchmarkFullRunASG128(b *testing.B) {
	benchConvergenceRun(b, budgetGen(128), game.NewAsymSwap(game.Sum), false)
}

func BenchmarkFullRunASGNaive128(b *testing.B) {
	benchConvergenceRun(b, budgetGen(128), game.NewAsymSwap(game.Sum), true)
}

func BenchmarkFullRunASG256(b *testing.B) {
	benchConvergenceRun(b, budgetGen(256), game.NewAsymSwap(game.Sum), false)
}

func BenchmarkFullRunASGNaive256(b *testing.B) {
	benchConvergenceRun(b, budgetGen(256), game.NewAsymSwap(game.Sum), true)
}

func BenchmarkFullRunGBG256(b *testing.B) {
	benchConvergenceRun(b, connGen(256), game.NewGreedyBuy(game.Sum, game.NewAlpha(256, 4)), false)
}

func BenchmarkFullRunGBGNaive256(b *testing.B) {
	benchConvergenceRun(b, connGen(256), game.NewGreedyBuy(game.Sum, game.NewAlpha(256, 4)), true)
}

// benchPathTrace runs the Figure 1 setting (MAX-SG on a path, max cost
// policy with deterministic ties) to convergence, the workload the
// Theorem 2.11 Theta(n log n) bound is about. The naive variant is the
// before state: full-BFS candidate scans and an engine-less policy.
func benchPathTrace(b *testing.B, n int, naive bool, workers int) {
	var gm game.Game = game.NewSwap(game.Max)
	var pol dynamics.Policy = dynamics.MaxCostDeterministic{}
	if naive {
		gm = game.Naive(gm)
		pol = plainPolicy{dynamics.MaxCostDeterministic{}}
	}
	for i := 0; i < b.N; i++ {
		g := graph.Path(n)
		res := dynamics.Run(g, dynamics.Config{
			Game:    gm,
			Policy:  pol,
			Tie:     dynamics.TieFirst,
			Workers: workers,
		})
		if !res.Converged {
			b.Fatal("no convergence")
		}
	}
}

func BenchmarkPathTraceDelta128(b *testing.B)    { benchPathTrace(b, 128, false, 0) }
func BenchmarkPathTraceNaive128(b *testing.B)    { benchPathTrace(b, 128, true, 0) }
func BenchmarkPathTraceDelta256(b *testing.B)    { benchPathTrace(b, 256, false, 0) }
func BenchmarkPathTraceNaive256(b *testing.B)    { benchPathTrace(b, 256, true, 0) }
func BenchmarkPathTraceParallel256(b *testing.B) { benchPathTrace(b, 256, false, 4) }

// BenchmarkProcessGBGRun benchmarks one full convergence run at the
// experiment scale.
func BenchmarkProcessGBGRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := gen.NewRand(int64(i))
		g := gen.RandomConnected(40, 80, r)
		res := dynamics.Run(g, dynamics.Config{
			Game:   game.NewGreedyBuy(game.Sum, game.NewAlpha(40, 4)),
			Policy: dynamics.MaxCost{},
			Seed:   int64(i),
		})
		if !res.Converged {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkExploreBestResponse is the pinned reach-at-scale workload of
// the interned state-store explorer: the best-response state graph of the
// MAX Swap Game from a 12-vertex cycle, explored up to a 200000-state cap
// (the regime the store is for — the space dwarfs any sensible cap, and
// the run measures how fast distinct states can be discovered, interned
// and expanded). States at the cap is exact and implementation-
// independent. Part of the CI performance trajectory (BENCH_ensemble.json
// vs BENCH_baseline.json).
func BenchmarkExploreBestResponse(b *testing.B) {
	gm := game.NewSwap(game.Max)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cycles.ExploreBestResponse(graph.Cycle(12), gm, 200000)
		if err == nil || res.States != 200001 {
			b.Fatalf("exploration changed behaviour: %+v %v", res, err)
		}
	}
}

// BenchmarkExploreBestResponseFull is the completing counterpart: the full
// 15684-state best-response space of the SUM Swap Game from a 10-vertex
// path, with every ReachResult field exact.
func BenchmarkExploreBestResponseFull(b *testing.B) {
	gm := game.NewSwap(game.Sum)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cycles.ExploreBestResponse(graph.Path(10), gm, 300000)
		if err != nil || res.States != 15684 || !res.StableReachable {
			b.Fatalf("exploration changed behaviour: %+v %v", res, err)
		}
	}
}

// BenchmarkDetectCyclesRun runs SUM-ASG max-cost dynamics to convergence at
// n=128 with cycle detection on, the workload of the runner's interned
// seen-state bookkeeping. Part of the CI performance trajectory.
func BenchmarkDetectCyclesRun(b *testing.B) {
	g0 := gen.BudgetNetwork(128, 3, gen.NewRand(1))
	cfg := dynamics.Config{
		Game:         game.NewAsymSwap(game.Sum),
		Policy:       dynamics.MaxCost{},
		Seed:         7,
		DetectCycles: true,
	}
	r := dynamics.NewRunner()
	g := g0.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CopyFrom(g0)
		res := r.Run(g, cfg)
		if !res.Converged || res.Cycled {
			b.Fatalf("run changed behaviour: %+v", res)
		}
	}
}

// BenchmarkHuntCampaign runs a fixed counterexample-hunt campaign end to
// end through the campaign spine: the cycle-pendant family crossed with
// both ASG variants, every instance searched for a best-response cycle on
// the interned store under a 500-state cap, records streamed to a JSONL
// sink. CI records its ns/op in BENCH_ensemble.json so the hunt spine's
// performance trajectory is tracked across PRs; keep the workload fixed.
func BenchmarkHuntCampaign(b *testing.B) {
	c := campaign.Campaign{
		Name:     "bench-hunt",
		Samplers: []campaign.Sampler{campaign.CyclePendantSampler()},
		Variants: []campaign.Variant{
			{Name: "sum-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Sum) }},
			{Name: "max-asg", New: func(int) game.Game { return game.NewAsymSwap(game.Max) }},
		},
		Instances: 4,
		Seed:      1,
		MaxStates: 500,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := campaign.Run(c, campaign.Options{Workers: 2, ShardSize: 1},
			campaign.NewJSONLSink(io.Discard))
		if err != nil || sum.Searched != 8 || sum.Hits != 0 {
			b.Fatalf("campaign changed behaviour: %+v %v", sum, err)
		}
	}
}

// BenchmarkEnsembleSweep runs a fixed small sweep end to end through the
// ensemble spine (registry lookup, sharded execution, record encoding).
// CI records its ns/op in BENCH_ensemble.json so the performance
// trajectory of the spine is tracked across PRs; keep the workload fixed.
func BenchmarkEnsembleSweep(b *testing.B) {
	sc, ok := ensemble.Lookup("fig7-asg-sum-k2")
	if !ok {
		b.Fatal("scenario missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := ensemble.Execute(sc,
			ensemble.Options{Ns: []int{12, 16}, Trials: 8, Workers: 2, ShardSize: 2},
			ensemble.NewJSONLSink(io.Discard))
		if err != nil {
			b.Fatal(err)
		}
	}
}
