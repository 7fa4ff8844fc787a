// Package stats provides the statistical primitives shared by the Sleuth
// reproduction: summary statistics, percentiles, CDF extraction, streaming
// moments (Welford), n-sigma anomaly rules, confidence intervals, and
// ordinary least squares regression (used by the Realtime RCA baseline).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already-sorted input, without the
// copy. Useful when many percentiles are taken from the same sample.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // P(X <= Value)
}

// CDF returns n evenly spaced points of the empirical CDF of xs.
// Used to regenerate the paper's Figure 3 (span duration CDF).
func CDF(xs []float64, n int) []CDFPoint {
	if len(xs) == 0 || n <= 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i+1) / float64(n)
		idx := int(frac*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		pts = append(pts, CDFPoint{Value: sorted[idx], Fraction: frac})
	}
	return pts
}

// Welford accumulates streaming mean and variance in one pass.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations seen so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the running population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// NSigma reports whether x lies further than n standard deviations from the
// mean of the reference sample — the "n-sigma rule" whose degradation at
// scale motivates the paper (Figure 1).
func NSigma(x, mean, std, n float64) bool {
	if std <= 0 {
		return x != mean
	}
	return math.Abs(x-mean) > n*std
}

// ErrSingular is returned by LinearRegression when the normal equations are
// singular (e.g. perfectly collinear regressors).
var ErrSingular = errors.New("stats: singular design matrix")

// LinearRegression fits y ≈ X·beta + intercept by ordinary least squares
// using the normal equations with partial-pivot Gaussian elimination.
// X is row-major with one row per observation. The returned slice holds the
// intercept at index 0 followed by one coefficient per column of X.
//
// The Realtime RCA baseline uses this to attribute end-to-end latency
// variance to individual spans.
func LinearRegression(x [][]float64, y []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, errors.New("stats: mismatched regression inputs")
	}
	d := len(x[0]) + 1 // +1 for the intercept column
	for _, row := range x {
		if len(row)+1 != d {
			return nil, errors.New("stats: ragged design matrix")
		}
	}
	// Build the normal equations A·beta = b where A = Xᵀ X and b = Xᵀ y,
	// with an implicit leading 1 column for the intercept.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
	}
	feature := func(row []float64, j int) float64 {
		if j == 0 {
			return 1
		}
		return row[j-1]
	}
	for r := 0; r < n; r++ {
		for i := 0; i < d; i++ {
			fi := feature(x[r], i)
			for j := 0; j < d; j++ {
				a[i][j] += fi * feature(x[r], j)
			}
			a[i][d] += fi * y[r]
		}
	}
	// Tiny ridge term keeps near-collinear systems solvable while leaving
	// well-posed fits effectively untouched.
	for i := 0; i < d; i++ {
		a[i][i] += 1e-9
	}
	if err := gaussSolve(a); err != nil {
		return nil, err
	}
	beta := make([]float64, d)
	for i := range beta {
		beta[i] = a[i][d]
	}
	return beta, nil
}

// gaussSolve performs in-place Gaussian elimination with partial pivoting on
// the augmented matrix a (d rows, d+1 columns), leaving the solution in the
// last column.
func gaussSolve(a [][]float64) error {
	d := len(a)
	for col := 0; col < d; col++ {
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for j := col; j <= d; j++ {
			a[col][j] *= inv
		}
		for r := 0; r < d; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := col; j <= d; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	return nil
}

// Histogram bins xs into n equal-width buckets over [min, max] and returns
// the bucket counts together with the bucket lower edges.
func Histogram(xs []float64, n int) (edges []float64, counts []int) {
	if len(xs) == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		return []float64{lo}, []int{len(xs)}
	}
	edges = make([]float64, n)
	counts = make([]int, n)
	width := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		counts[idx]++
	}
	return edges, counts
}
