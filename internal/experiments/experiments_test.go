package experiments

import (
	"strings"
	"testing"

	"ncg/internal/ensemble"
	"ncg/internal/game"
)

// mustFigure regenerates figure num or fails the test.
func mustFigure(t *testing.T, num int, opt Options) FigureResult {
	t.Helper()
	fr, err := Figure(num, opt)
	if err != nil {
		t.Fatalf("figure %d: %v", num, err)
	}
	return fr
}

// TestRunConvergesAndAggregates: every trial of a figure series run
// converges, and each agent count's aggregate is consistent.
func TestRunConvergesAndAggregates(t *testing.T) {
	opt := Options{Ns: []int{14}, Trials: 12, Seed: 7, Workers: 4}
	fr := mustFigure(t, 7, opt)
	for _, s := range fr.Series {
		p := s.Points[0]
		if p.N != 14 || p.Trials != opt.Trials || p.Converged != p.Trials {
			t.Fatalf("%s: %d/%d trials converged at n=%d", s.Name, p.Converged, p.Trials, p.N)
		}
		if p.MaxSteps < p.MinSteps || float64(p.MaxSteps) < p.AvgSteps() {
			t.Fatalf("%s: bad aggregates: %+v", s.Name, p)
		}
		if s.Name == "k=2 max cost" && p.AvgSteps() <= 0 {
			t.Fatalf("%s: no steps taken: %+v", s.Name, p)
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts: the Greedy Buy figures, whose
// series run on every start ensemble, do not depend on the worker count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, num := range []int{11, 14} {
		render := func(workers int) string {
			return mustFigure(t, num, Options{Ns: []int{12}, Trials: 6, Seed: 7, Workers: workers}).Render()
		}
		if a, b := render(1), render(8); a != b {
			t.Fatalf("figure %d: worker count changed the output:\n%s\nvs\n%s", num, a, b)
		}
	}
}

// TestSweepAndTable: a series run over a grid has one aggregate per agent
// count, in grid order, and the table renders a row for each.
func TestSweepAndTable(t *testing.T) {
	ns := []int{8, 12}
	fr := mustFigure(t, 7, Options{Ns: ns, Trials: 6, Seed: 7, Workers: 2})
	s := fr.Series[1]
	if s.Name != "k=2 max cost" || len(s.Points) != 2 || s.Points[0].N != 8 || s.Points[1].N != 12 {
		t.Fatalf("sweep malformed: %+v", s)
	}
	tab := Table([]Series{s}, ns, AvgMetric)
	if !strings.Contains(tab, "k=2") || !strings.Contains(tab, "8\t") || !strings.Contains(tab, "12\t") {
		t.Fatalf("table malformed:\n%s", tab)
	}
}

// TestFig7SmokeBound runs a miniature Figure 7 sweep and checks the paper's
// headline observation: convergence in at most 5n steps, and all runs
// converge (no cycles in random instances).
func TestFig7SmokeBound(t *testing.T) {
	opt := Options{Ns: []int{12, 20}, Trials: 25, Seed: 3}
	fr := mustFigure(t, 7, opt)
	if len(fr.Series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range fr.Series {
		for _, p := range s.Points {
			if p.Converged != p.Trials {
				t.Fatalf("%s n=%d: %d/%d converged", s.Name, p.N, p.Converged, p.Trials)
			}
		}
	}
	if b := fr.Bound(); b > 6 {
		t.Fatalf("max steps/n = %.2f exceeds the paper's 5n envelope plus slack", b)
	}
}

// TestFig8SmokeBound is the MAX-ASG analogue (paper: <= 5n with one
// outlier; we allow the envelope plus slack for small-sample noise).
func TestFig8SmokeBound(t *testing.T) {
	opt := Options{Ns: []int{12, 20}, Trials: 25, Seed: 4}
	fr := mustFigure(t, 8, opt)
	for _, s := range fr.Series {
		for _, p := range s.Points {
			if p.Converged != p.Trials {
				t.Fatalf("%s n=%d: %d/%d converged", s.Name, p.N, p.Converged, p.Trials)
			}
		}
	}
	if b := fr.Bound(); b > 6 {
		t.Fatalf("max steps/n = %.2f far exceeds the paper's envelope", b)
	}
}

// TestFig11SmokeBound checks the SUM-GBG 7n envelope on a miniature grid.
func TestFig11SmokeBound(t *testing.T) {
	opt := Options{Ns: []int{12, 20}, Trials: 15, Seed: 5}
	fr := mustFigure(t, 11, opt)
	for _, s := range fr.Series {
		for _, p := range s.Points {
			if p.Converged != p.Trials {
				t.Fatalf("%s n=%d: %d/%d converged", s.Name, p.N, p.Converged, p.Trials)
			}
		}
	}
	if b := fr.Bound(); b > 9 {
		t.Fatalf("max steps/n = %.2f exceeds the paper's 7n envelope plus slack", b)
	}
}

// TestFig13SmokeBound checks the MAX-GBG 8n envelope.
func TestFig13SmokeBound(t *testing.T) {
	opt := Options{Ns: []int{12, 20}, Trials: 15, Seed: 6}
	fr := mustFigure(t, 13, opt)
	if b := fr.Bound(); b > 10 {
		t.Fatalf("max steps/n = %.2f exceeds the paper's 8n envelope plus slack", b)
	}
}

// TestFig12TopologiesRun exercises the topology comparison plumbing.
func TestFig12TopologiesRun(t *testing.T) {
	opt := Options{Ns: []int{10}, Trials: 8, Seed: 8}
	fr := mustFigure(t, 12, opt)
	// 2 policies x 3 topologies x 4 alphas.
	if len(fr.Series) != 24 {
		t.Fatalf("series = %d, want 24", len(fr.Series))
	}
	out := fr.Render()
	if !strings.Contains(out, "dl a=n/2 random") {
		t.Fatalf("render missing series:\n%s", out)
	}
}

func TestFigureDispatch(t *testing.T) {
	opt := Options{Ns: []int{10}, Trials: 4, Seed: 9}
	for _, num := range []int{7, 8, 11, 12, 13, 14} {
		if _, err := Figure(num, opt); err != nil {
			t.Fatalf("figure %d: %v", num, err)
		}
	}
	if _, err := Figure(2, opt); err == nil {
		t.Fatal("expected error for theory figures")
	}
}

// TestGBGDeletionPhase reproduces the Section 4.2.2 trajectory
// observation: on dense initial networks with high alpha, the first phase
// of a SUM-GBG run is dominated by deletions.
func TestGBGDeletionPhase(t *testing.T) {
	sc, ok := ensemble.Lookup("gbg-sum-dense-an") // m = 4n, alpha = n, random policy
	if !ok {
		t.Fatal("scenario gbg-sum-dense-an is not registered")
	}
	sum, err := ensemble.Execute(sc, ensemble.Options{Ns: []int{20}, Trials: 10, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := sum.Aggregates[0]
	if st.Converged != st.Trials {
		t.Fatalf("convergence incomplete: %+v", st)
	}
	del := st.TotalMoves[game.KindDelete]
	buy := st.TotalMoves[game.KindBuy]
	if del <= buy {
		t.Fatalf("expected deletions to dominate buys at m=4n, alpha=n: del=%d buy=%d", del, buy)
	}
	// Stable networks at alpha = n are sparse; from 4n initial edges, at
	// least 2n net deletions must happen in every converging run.
	if del-buy < 2*20*st.Trials {
		t.Fatalf("net deletions %d below structural minimum", del-buy)
	}
}

// TestRunGracefulDegenerate: degenerate requests are errors, never panics
// or tables of zeros, and a series whose ensemble rejects an agent count
// of the grid is left out while the others run.
func TestRunGracefulDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		num  int
		opt  Options
	}{
		{"no trials", 7, Options{Ns: []int{12}}},
		{"empty grid", 7, Options{Trials: 2}},
		{"no budget fits n=2", 7, Options{Ns: []int{2}, Trials: 1}},
		{"no budget fits n=2 of the grid", 8, Options{Ns: []int{2, 12}, Trials: 1}},
		{"no density fits n=1", 11, Options{Ns: []int{1}, Trials: 1}},
	} {
		if fr, err := Figure(tc.num, tc.opt); err == nil {
			t.Errorf("%s: no error, got %d series", tc.name, len(fr.Series))
		}
	}
	// At n = 4 the m = 4n ensemble needs more edges than K_4 has, so only
	// the m = n series remain: 2 policies x 3 prices.
	fr := mustFigure(t, 11, Options{Ns: []int{4}, Trials: 1, Seed: 1})
	if len(fr.Series) != 6 {
		t.Fatalf("figure 11 at n=4: %d series, want 6", len(fr.Series))
	}
	for _, s := range fr.Series {
		if !strings.HasPrefix(s.Name, "m=1n ") {
			t.Fatalf("figure 11 at n=4 kept the infeasible series %q", s.Name)
		}
	}
	// Figure 7 at n = 12 drops the budgets with n <= 2k: k = 6 and k = 10.
	if got := len(mustFigure(t, 7, Options{Ns: []int{12}, Trials: 1}).Series); got != 10 {
		t.Fatalf("figure 7 at n=12: %d series, want 10", got)
	}
}

// TestFigureZeroSeed: a zero seed runs as base seed 0 rather than falling
// back to the series' default seed 1.
func TestFigureZeroSeed(t *testing.T) {
	render := func(seed int64) string {
		return mustFigure(t, 7, Options{Ns: []int{16}, Trials: 8, Seed: seed}).Render()
	}
	if render(0) == render(1) {
		t.Fatal("seed 0 reproduced seed 1's figure")
	}
}
