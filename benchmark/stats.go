package main

import (
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/stats"
)

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns Q1 and Q3 by the exclusive method, position k(n+1)/4 in
// the sorted sample — what Python's statistics.quantiles(xs, n=4) returns and
// therefore what the driver's spread check computes. It needs n >= 2.
func quartiles(xs []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise figure every bound is compared with.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailSteps are the percentiles a latency tail may be reported at.
var tailSteps = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailSteps that still has at
// least ten of the n samples beyond it, the rule that keeps a reported tail
// from being one or two outliers. Below twenty samples only the median
// qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailSteps {
		// The margin keeps 100-99.9 from rounding 10000 samples down to 9.99….
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// worseBy is how much worse b is than a as a share of a, signed so that a
// positive value is a regression whichever direction is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}
