package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := Std(xs); s != 2 {
		t.Fatalf("Std = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty slice should give zero moments")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if CDF(nil, 10) != nil {
		t.Fatal("empty CDF should be nil")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("Min/Max of empty slice should be infinities")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{10, 20}, 50); !almostEqual(got, 15, 1e-9) {
		t.Errorf("interpolated median = %v, want 15", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	r := xrand.New(1)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.LogNormal(0, 1)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := PercentileSorted(sorted, p)
		if v < prev {
			t.Fatalf("percentile not monotonic at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	pts := CDF(xs, 5)
	if len(pts) != 5 {
		t.Fatalf("CDF returned %d points", len(pts))
	}
	if pts[4].Fraction != 1 || pts[4].Value != 10 {
		t.Fatalf("last CDF point = %+v, want value 10 fraction 1", pts[4])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatalf("CDF not monotonic at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := xrand.New(2)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = r.Normal(3, 2)
		w.Add(xs[i])
	}
	if w.N() != 500 {
		t.Fatalf("Welford N = %d", w.N())
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("Welford mean %v != batch mean %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("Welford var %v != batch var %v", w.Variance(), Variance(xs))
	}
}

func TestWelfordFewSamples(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford variance should be 0")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatal("single-sample Welford wrong")
	}
}

func TestNSigma(t *testing.T) {
	if NSigma(10, 10, 1, 3) {
		t.Fatal("value at mean flagged")
	}
	if !NSigma(14, 10, 1, 3) {
		t.Fatal("4-sigma value not flagged at n=3")
	}
	if NSigma(12, 10, 1, 3) {
		t.Fatal("2-sigma value flagged at n=3")
	}
	// Degenerate std: anything different from the mean is anomalous.
	if !NSigma(11, 10, 0, 3) || NSigma(10, 10, 0, 3) {
		t.Fatal("zero-std handling wrong")
	}
}

func TestLinearRegressionExact(t *testing.T) {
	// y = 2 + 3a - b, no noise: coefficients must be recovered exactly.
	var x [][]float64
	var y []float64
	r := xrand.New(4)
	for i := 0; i < 100; i++ {
		a, b := r.Float64()*10, r.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 2+3*a-b)
	}
	beta, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i, w := range want {
		if !almostEqual(beta[i], w, 1e-6) {
			t.Fatalf("beta[%d] = %v, want %v", i, beta[i], w)
		}
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	r := xrand.New(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		a := r.Float64() * 10
		x = append(x, []float64{a})
		y = append(y, 5+2*a+r.Normal(0, 0.5))
	}
	beta, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(beta[0], 5, 0.2) || !almostEqual(beta[1], 2, 0.05) {
		t.Fatalf("noisy fit beta = %v", beta)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression(nil, nil); err == nil {
		t.Fatal("empty regression did not error")
	}
	if _, err := LinearRegression([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched rows did not error")
	}
	if _, err := LinearRegression([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix did not error")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10}
	edges, counts := Histogram(xs, 5)
	if len(edges) != 5 || len(counts) != 5 {
		t.Fatalf("histogram sizes: %d edges, %d counts", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram dropped samples: %d != %d", total, len(xs))
	}
	// Constant data collapses to one bucket.
	e, c := Histogram([]float64{2, 2, 2}, 4)
	if len(e) != 1 || c[0] != 3 {
		t.Fatalf("constant histogram = %v %v", e, c)
	}
}

func TestPercentileSortedPropertyWithinRange(t *testing.T) {
	r := xrand.New(6)
	check := func(seed uint16) bool {
		rr := r.Split(string(rune(seed)))
		n := rr.IntRange(1, 100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Float64() * 100
		}
		sort.Float64s(xs)
		for p := 0.0; p <= 100; p += 7 {
			v := PercentileSorted(xs, p)
			if v < xs[0] || v > xs[n-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
