package dynamics

import (
	"testing"

	"ncg/internal/game"
	"ncg/internal/gen"
	"ncg/internal/graph"
)

// TestRunnerSteadyStateAllocs pins the allocation count of a warmed
// Runner: after the first run has grown every arena (scratches, distance
// cache, scan arenas, ordering and candidate buffers), further runs on
// same-sized networks must be allocation-flat at one worker, under the max
// cost, the random and the adversarial policy — the regression guard for
// the engine's arena reuse. n = 80 runs the delta scans over the distance
// cache; n = 64, the one-word limit, runs the naive scans, whose
// candidates come from the scratches' G−u ball arenas. At Workers 3 every
// parallel probe wave allocates its WaitGroup and goroutine closures, so
// that case has a per-step budget instead.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	both := []int{64, 80}
	cases := []struct {
		policy  Policy
		workers int
		// The budget is perRun + perStep × steps: room for incidental
		// growth, failing on any per-step or per-trial allocation
		// creeping back in.
		perRun, perStep float64
		ns              []int
	}{
		{MaxCost{}, 1, 8, 0, both},
		{Random{}, 1, 8, 0, both},
		// The adversarial policy probes every agent at every step, about
		// 1.5 s per run at n = 80, so it runs at n = 64 only; its unhappy
		// set does not depend on the scan regime.
		{Adversarial{Choose: func(_ graph.Store, unhappy []int) int { return unhappy[0] }}, 1, 8, 0, []int{64}},
		{MaxCost{}, 3, 8, 5, both},
	}
	for _, c := range cases {
		for _, n := range c.ns {
			g0 := gen.BudgetNetwork(n, 3, gen.NewRand(1))
			cfg := Config{Game: game.NewAsymSwap(game.Sum), Policy: c.policy, Seed: 7, Workers: c.workers}
			r := NewRunner()
			g := g0.Clone()
			res := r.Run(g, cfg)
			if !res.Converged || res.Steps == 0 {
				t.Fatalf("%s workers=%d n=%d warm-up run: %+v", c.policy.Name(), c.workers, n, res)
			}
			steps := res.Steps
			allocs := testing.AllocsPerRun(5, func() {
				g.CopyFrom(g0)
				r.Run(g, cfg)
			})
			perStep := allocs / float64(steps)
			t.Logf("%s workers=%d n=%d steady state: %.1f allocs per run, %.3f per step (%d steps)",
				c.policy.Name(), c.workers, n, allocs, perStep, steps)
			if budget := c.perRun + c.perStep*float64(steps); allocs > budget {
				t.Errorf("%s workers=%d n=%d steady-state run allocates %.1f times (%.3f per step), want <= %v + %v per step",
					c.policy.Name(), c.workers, n, allocs, perStep, c.perRun, c.perStep)
			}
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
