package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before it
// is reported; with fewer, the value is one or two outliers, not a
// percentile.
const minBeyond = 10

// median returns the middle of the samples (the mean of the two middle
// ones for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the nearest-rank q-quantile of the samples and whether it
// may be reported: at least minBeyond samples must lie above its rank.
func tail(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// maxOf returns the largest sample; 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// timingLine renders a latency sample set as the report prints it: the
// median, the q-quantile when enough samples lie beyond it, and the
// sample count.
func timingLine(name, unit string, xs []float64, q float64) string {
	pct := fmt.Sprintf("p%g", q*100)
	t, ok := tail(xs, q)
	tailStr := "n/a"
	if ok {
		tailStr = fmt.Sprintf("%.4g", t)
	}
	return fmt.Sprintf("%-28s p50=%.4g %s=%s %s (n=%d)", name, median(xs), pct, tailStr, unit, len(xs))
}

// tailOrZero is the value a tail percentile reports in the result line:
// the percentile when reportable, else 0, which the text report shows as
// n/a together with the sample count.
func tailOrZero(xs []float64, q float64) float64 {
	v, ok := tail(xs, q)
	if !ok {
		return 0
	}
	return v
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
