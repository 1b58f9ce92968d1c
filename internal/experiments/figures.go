package experiments

import (
	"fmt"

	"ncg/internal/ensemble"
)

// Options scale a figure regeneration: the paper uses 10000 trials (ASG)
// and 5000 trials (GBG) on n = 10..100; the defaults here are reduced so
// the whole suite runs in minutes (see DESIGN.md §3). All conclusions are
// about curve shapes, which are stable at these counts. The delta-evaluated
// best-response engine keeps per-step work near O(n) searches, so Ns well
// beyond the paper's grid are feasible; combine that with ProbeWorkers to
// parallelize within a run once trial-level parallelism stops saturating.
type Options struct {
	Ns      []int
	Trials  int
	Seed    int64
	Workers int
	// ProbeWorkers fans the happiness probes of each run over a worker
	// pool (see dynamics.Config.Workers); 0 probes serially. Sweeps at
	// small n saturate cores by running trials in parallel, so leave this
	// at 0 there; at large n, trade trial parallelism for probe
	// parallelism instead. Results are identical either way.
	ProbeWorkers int
}

// DefaultOptions returns the scaled-down defaults.
func DefaultOptions() Options {
	return Options{
		Ns:     []int{10, 20, 30, 40, 50},
		Trials: 60,
		Seed:   1,
	}
}

// FigureResult is a regenerated figure: its series plus the n-grid.
type FigureResult struct {
	Name   string
	Ns     []int
	Series []Series
}

// Render returns the avg-steps and max-steps tables of the figure (the
// left and right panels of the paper's figures).
func (fr FigureResult) Render() string {
	out := fr.Name + "\n\nAvg # of steps until convergence\n"
	out += Table(fr.Series, fr.Ns, AvgMetric)
	out += "\nMax # of steps until convergence\n"
	out += Table(fr.Series, fr.Ns, MaxMetric)
	return out
}

// Bound returns the largest observed ratio max-steps / n across the
// figure, used to check the paper's 5n/7n/8n envelopes.
func (fr FigureResult) Bound() float64 {
	worst := 0.0
	for _, s := range fr.Series {
		for _, p := range s.Points {
			worst = max(worst, float64(p.MaxSteps)/float64(p.N))
		}
	}
	return worst
}

// Figure regenerates the numbered empirical figure (7, 8, 11-14). Each
// series of ensemble.FigureSeries runs once, as one ensemble execution
// over the whole grid at opt's trials and seed (a zero seed is run as
// seed 0, not replaced by the series default). A series whose ensemble
// rejects an agent count of the grid, such as a budget k with n <= 2k, is
// left out; a figure with no series left, an empty grid or no trials is
// an error.
func Figure(num int, opt Options) (FigureResult, error) {
	title, scs, err := ensemble.FigureSeries(num)
	if err != nil {
		return FigureResult{}, fmt.Errorf("experiments: %v (theory figures are verified by the cycles package)", err)
	}
	if len(opt.Ns) == 0 || opt.Trials < 1 {
		return FigureResult{}, fmt.Errorf("experiments: figure %d needs agent counts and at least one trial, got grid %v and %d trials", num, opt.Ns, opt.Trials)
	}
	fr := FigureResult{Name: title, Ns: opt.Ns}
	var rejected error
series:
	for _, sc := range scs {
		if sc.CheckN != nil {
			for _, n := range opt.Ns {
				if err := sc.CheckN(n); err != nil {
					if rejected == nil {
						rejected = fmt.Errorf("%s: %v", sc.Name, err)
					}
					continue series
				}
			}
		}
		sc.Ns, sc.Trials, sc.Seed = opt.Ns, opt.Trials, opt.Seed
		sum, err := ensemble.Execute(sc, ensemble.Options{Workers: opt.Workers, ProbeWorkers: opt.ProbeWorkers})
		if err != nil {
			return FigureResult{}, fmt.Errorf("experiments: figure %d: %v", num, err)
		}
		fr.Series = append(fr.Series, Series{Name: sc.Name, Points: sum.Aggregates})
	}
	if len(fr.Series) == 0 {
		return FigureResult{}, fmt.Errorf("experiments: figure %d has no series on the grid %v: %v", num, opt.Ns, rejected)
	}
	return fr, nil
}
