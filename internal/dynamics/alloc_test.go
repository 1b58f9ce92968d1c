package dynamics

import (
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
)

// TestRunnerSteadyStateAllocs pins the per-step allocation count of a
// warmed Runner: after the first run has grown every arena (scratches,
// distance cache, move and ordering buffers), further runs on same-sized
// networks must be allocation-flat — the regression guard for the
// engine's arena reuse. n = 80 runs the delta scans over the distance
// cache; n = 64, the one-word limit, runs the naive scans, whose
// candidates come from the scratches' G−u ball arenas.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{64, 80} {
		g0 := gen.BudgetNetwork(n, 3, gen.NewRand(1))
		cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Seed: 7}
		r := NewRunner()
		g := g0.Clone()
		res := r.Run(g, cfg)
		if !res.Converged || res.Steps == 0 {
			t.Fatalf("n=%d warm-up run: %+v", n, res)
		}
		steps := res.Steps
		perRun := testing.AllocsPerRun(5, func() {
			g.CopyFrom(g0)
			r.Run(g, cfg)
		})
		perStep := perRun / float64(steps)
		t.Logf("n=%d steady state: %.1f allocs per run, %.3f per step (%d steps)", n, perRun, perStep, steps)
		// The budget leaves room for incidental growth but fails on any
		// per-step or per-trial allocation creeping back in.
		if perRun > 8 {
			t.Errorf("n=%d steady-state run allocates %.1f times (%.3f per step), want <= 8 per run", n, perRun, perStep)
		}
	}
}

// TestRunnerDetectCyclesAllocs pins the allocation budget of cycle
// detection: a warmed Runner interns visited states into its reusable
// store (fingerprint + compact encoding, no per-step graph clones), so a
// whole DetectCycles run must stay within a small constant allocation
// count — independent of its step count — alongside the steady-state
// budget above, in both scan regimes.
func TestRunnerDetectCyclesAllocs(t *testing.T) {
	for _, n := range []int{64, 80} {
		g0 := gen.BudgetNetwork(n, 3, gen.NewRand(1))
		cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: MaxCost{}, Seed: 7, DetectCycles: true}
		r := NewRunner()
		g := g0.Clone()
		res := r.Run(g, cfg)
		if !res.Converged || res.Cycled || res.Steps == 0 {
			t.Fatalf("n=%d warm-up run: %+v", n, res)
		}
		steps := res.Steps
		perRun := testing.AllocsPerRun(5, func() {
			g.CopyFrom(g0)
			r.Run(g, cfg)
		})
		t.Logf("n=%d detect-cycles steady state: %.1f allocs per run (%d steps)", n, perRun, steps)
		if perRun > 8 {
			t.Errorf("n=%d DetectCycles run allocates %.1f times over %d steps, want <= 8 per run (no per-step state copies)", n, perRun, steps)
		}
	}
}

// TestRunnerReusedAcrossSizes checks arena resizing and cross-run
// isolation: a single Runner alternating between network sizes and games
// must reproduce the results of fresh single-use runs exactly. The sizes
// straddle the one-word limit, so the runner also alternates between the
// naive scans and the delta scans over the distance cache.
func TestRunnerReusedAcrossSizes(t *testing.T) {
	r := NewRunner()
	for trial := 0; trial < 9; trial++ {
		n := []int{16, 72, 24}[trial%3]
		var gm game.Game = game.NewAsymSwap(game.Sum)
		if trial%2 == 1 {
			gm = game.NewGreedyBuy(game.Sum, game.NewAlpha(int64(n), 4))
		}
		cfg := Config{Game: gm, Policy: MaxCost{}, Seed: int64(trial)}
		gWant := gen.BudgetNetwork(n, 3, gen.NewRand(int64(trial)))
		gGot := gWant.Clone()
		want := Run(gWant, cfg)
		got := r.Run(gGot, cfg)
		if got.Steps != want.Steps || got.Converged != want.Converged || got.MoveKinds != want.MoveKinds {
			t.Fatalf("trial %d (n=%d): runner %+v, fresh %+v", trial, n, got, want)
		}
		if !gGot.Equal(gWant) {
			t.Fatalf("trial %d (n=%d): final networks differ", trial, n)
		}
	}
}
