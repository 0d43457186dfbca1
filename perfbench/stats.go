package main

import (
	"math"
	"sort"
)

// summary describes one timing metric across the repeats of a run: the
// stability model of the report (median, quartiles, coefficient of
// variation and a stable/moderate/unstable class).
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	CV     float64
}

// summarize returns the summary of xs; quartiles use the same exclusive
// method as Python's statistics.quantiles(xs, n=4).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q1 = exclusiveQuantile(sorted, 1, 4)
	s.Median = exclusiveQuantile(sorted, 2, 4)
	s.Q3 = exclusiveQuantile(sorted, 3, 4)
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) > 1 && mean != 0 {
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		s.CV = math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(mean)
	}
	return s
}

// class is the stability class of a CV: stable up to 0.05, moderate up
// to 0.10, unstable above.
func (s summary) class() string {
	switch {
	case s.CV <= 0.05:
		return "stable"
	case s.CV <= 0.10:
		return "moderate"
	}
	return "unstable"
}

// exclusiveQuantile is cut point i of n as Python's statistics.quantiles
// computes it with its default "exclusive" method, including its
// extrapolation beyond the data for very small samples.
func exclusiveQuantile(sorted []float64, i, n int) float64 {
	m := len(sorted)
	if m == 1 {
		return sorted[0]
	}
	j := min(max(i*(m+1)/n, 1), m-1)
	delta := float64(i*(m+1) - j*n)
	return (sorted[j-1]*(float64(n)-delta) + sorted[j]*delta) / float64(n)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it — the eleventh-largest value — with that percentile.
// With ten samples or fewer it falls back to the maximum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n <= 10 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}
