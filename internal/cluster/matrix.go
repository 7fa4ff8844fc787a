package cluster

// Matrix is a symmetric distance matrix with an implicitly-zero diagonal.
//
// The backing store is the packed upper triangle in row-major order —
// (0,1), (0,2), …, (0,n-1), (1,2), … — so an n-point matrix holds
// n(n-1)/2 float64s instead of the n² a dense layout needs. Beyond
// halving memory (a 50k-trace incident fits in ~10 GB instead of 20 GB),
// the packed layout halves write traffic: Set stores each symmetric pair
// once, so Pairwise, eval's custom-metric slicing, and the DeepTraLog
// baseline's embedding distances all write half the cells they used to.
// At/Set keep the dense API: any (i,j) order is accepted, At(i,i) is 0,
// and Set on the diagonal is a no-op (distances to self are identically
// zero).
type Matrix struct {
	N int
	d []float64
}

// NewMatrix allocates an n-point zero matrix (n(n-1)/2 packed cells).
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, d: make([]float64, n*(n-1)/2)}
}

// tri returns the packed index of cell (i, j); callers guarantee i < j.
func (m *Matrix) tri(i, j int) int {
	return i*(2*m.N-i-1)/2 + j - i - 1
}

// row returns the packed cells (i, i+1) … (i, n-1), which are contiguous.
func (m *Matrix) row(i int) []float64 {
	lo := m.tri(i, i+1)
	return m.d[lo : lo+m.N-i-1]
}

// At returns the distance between i and j.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return m.d[m.tri(i, j)]
}

// Set assigns the symmetric distance between i and j with a single write.
// The diagonal is pinned at zero: Set(i, i, v) does nothing.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	m.d[m.tri(i, j)] = v
}

// Bytes returns the size of the backing store, for telemetry.
func (m *Matrix) Bytes() int { return len(m.d) * 8 }

// Submatrix extracts the rows and columns named by idx into a fresh
// matrix: out.At(a, b) == m.At(idx[a], idx[b]). The eval harness uses it
// to slice one incident's block out of a batch-wide distance matrix.
func (m *Matrix) Submatrix(idx []int) *Matrix {
	out := NewMatrix(len(idx))
	for a := range idx {
		for b := a + 1; b < len(idx); b++ {
			out.Set(a, b, m.At(idx[a], idx[b]))
		}
	}
	return out
}
