// Package experiments regenerates the empirical study of the paper
// (Sections 3.4 and 4.2): convergence-time sweeps of the bounded-budget
// Asymmetric Swap Game (Figures 7 and 8) and of the Greedy Buy Game
// (Figures 11-14), under the max cost and random move policies, over the
// paper's initial-network ensembles. The package is a thin query layer
// over the internal/ensemble execution spine: every curve is a scenario
// of ensemble.FigureSeries and runs as one ensemble.Execute over the
// whole grid, so figures inherit the spine's sharded execution and
// deterministic per-trial seed streams.
package experiments

import (
	"fmt"

	"ncg/internal/ensemble"
)

// Series is one plotted curve: a figure series run over the grid, one
// aggregate per agent count.
type Series struct {
	Name   string
	Points []ensemble.Aggregate
}

// Table renders series as an aligned text table of the chosen metric, one
// row per n, matching the curves of the paper's figures.
func Table(series []Series, ns []int, metric func(ensemble.Aggregate) float64) string {
	out := "n"
	for _, s := range series {
		out += fmt.Sprintf("\t%s", s.Name)
	}
	out += "\n"
	for i, n := range ns {
		out += fmt.Sprintf("%d", n)
		for _, s := range series {
			out += fmt.Sprintf("\t%.1f", metric(s.Points[i]))
		}
		out += "\n"
	}
	return out
}

// AvgMetric extracts the average step count.
func AvgMetric(a ensemble.Aggregate) float64 { return a.AvgSteps() }

// MaxMetric extracts the maximum step count.
func MaxMetric(a ensemble.Aggregate) float64 { return float64(a.MaxSteps) }
