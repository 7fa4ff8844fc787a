package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndQuartiles(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 10, 3, 5, 9, 2, 8, 4, 6}
	q1, q3 := quartiles(xs)
	if !near(median(xs), 5.5) || !near(q1, 2.75) || !near(q3, 8.25) {
		t.Fatalf("median, q1, q3 = %v, %v, %v; want 5.5, 2.75, 8.25", median(xs), q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Fatalf("q1, q3 = %v, %v; want 1.5, 12", q1, q3)
	}
	// Two samples: both quartiles extrapolate from the only interval.
	q1, q3 = quartiles([]float64{10, 20})
	if !near(q1, 7.5) || !near(q3, 22.5) {
		t.Fatalf("q1, q3 of two samples = %v, %v; want 7.5, 22.5", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{7, 1, 10, 3, 5, 9, 2, 8, 4, 6}); !near(got, 1) {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("spread of a constant = %v, want 0", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Fatalf("spread of one sample = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); !near(got, 0.1) {
		t.Errorf("latency 100 -> 110 is worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); !near(got, 0.1) {
		t.Errorf("throughput 100 -> 90 is worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 120, "higher"); !near(got, -0.2) {
		t.Errorf("throughput 100 -> 120 is worse by %v, want -0.2", got)
	}
}
