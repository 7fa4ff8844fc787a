package cluster

import (
	"math"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/par"
)

// HDBSCAN's stage kernels. Core distances fan out on par.For in fixed
// blocks of rows, each row an independent order statistic, so they are
// bit-identical to the serial scan for any GOMAXPROCS. Prim and medoids
// run serially. Each stage times itself into a histogram
// (cluster.core_distances_us, cluster.mst_us, cluster.medoids_us) that the
// sampler projects to <name>.p50/.p99/.count series for `sleuthctl watch`.

// --- core distances --------------------------------------------------------

// kthNearest returns the k-th order statistic (0-based, counting the
// point itself as distance 0) of row i — the value a full ascending sort
// would leave at index k. scratch must have capacity ≥ k+1; it is used as
// a bounded max-heap holding the k+1 smallest values seen, so one row
// costs O(n log k) compares and no allocation instead of the O(n log n)
// full sort. The selected value is an order statistic of the row's value
// multiset, so the result is bit-identical to the sort-based reference.
func kthNearest(m *Matrix, i, k int, scratch []float64) float64 {
	h := scratch[:0]
	n := m.N
	for j := 0; j < n; j++ {
		v := m.At(i, j) // 0 when j == i
		if len(h) <= k {
			h = append(h, v)
			// Sift up.
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if h[p] >= h[c] {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if v >= h[0] {
			continue
		}
		// Replace the root (current (k+1)-th smallest) and sift down.
		h[0] = v
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			big := c
			if l < len(h) && h[l] > h[big] {
				big = l
			}
			if r < len(h) && h[r] > h[big] {
				big = r
			}
			if big == c {
				break
			}
			h[c], h[big] = h[big], h[c]
			c = big
		}
	}
	return h[0]
}

// coreDistances returns each point's distance to its k-th nearest
// neighbour (k = minSamples, counting the point itself as distance 0).
// Rows are independent, so they fan out in blocks of parallelMinPoints
// rows; each block reuses one bounded-heap scratch buffer, and a matrix of
// one block runs inline.
func coreDistances(m *Matrix, minSamples int) []float64 {
	timer := obs.H("cluster.core_distances_us").Start()
	defer timer.Stop()
	n := m.N
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	k := min(minSamples, n-1)
	par.For((n+parallelMinPoints-1)/parallelMinPoints, func(_, b int) {
		scratch := make([]float64, 0, k+1)
		for i := b * parallelMinPoints; i < min((b+1)*parallelMinPoints, n); i++ {
			out[i] = kthNearest(m, i, k, scratch)
		}
	})
	return out
}

// parallelMinPoints is the number of core-distance rows in one par.For
// work item.
const parallelMinPoints = 128

// --- minimum spanning tree -------------------------------------------------

// mstEdges builds the minimum spanning tree of the mutual-reachability
// graph with mstEdgesSerial's Prim and times it into cluster.mst_us.
func mstEdges(m *Matrix, core []float64) []edge {
	timer := obs.H("cluster.mst_us").Start()
	defer timer.Stop()
	return mstEdgesSerial(m, core)
}

// mstEdgesSerial is Prim's O(n²) scan. It does not fan out: each of its
// n rounds is one O(n) relaxation and argmin, too short to pay for a
// barrier per round (DESIGN §10).
func mstEdgesSerial(m *Matrix, core []float64) []edge {
	n := m.N
	inTree := make([]bool, n)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	from[0] = -1
	edges := make([]edge, 0, n-1)
	for iter := 0; iter < n; iter++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		if from[best] >= 0 {
			edges = append(edges, edge{a: from[best], b: best, w: dist[best]})
		}
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			mr := mutualReach(m, core, best, i)
			if mr < dist[i] {
				dist[i] = mr
				from[i] = best
			}
		}
	}
	sortEdges(edges)
	return edges
}

// --- medoids ---------------------------------------------------------------

// medoids is the kernel behind Medoids: per cluster, the member with the
// minimal distance sum to all members, lowest index winning ties. It scans
// serially: at the window sizes a diagnosis clusters (hundreds of traces)
// a fan-out costs about what it saves.
func medoids(m *Matrix, labels []int) map[int]int {
	members := make(map[int][]int)
	for i, l := range labels {
		if l >= 0 {
			members[l] = append(members[l], i)
		}
	}
	out := make(map[int]int, len(members))
	for l, idx := range members {
		best, bestSum := -1, 0.0
		for _, i := range idx {
			sum := 0.0
			for _, j := range idx {
				sum += m.At(i, j)
			}
			if best < 0 || sum < bestSum {
				best, bestSum = i, sum
			}
		}
		out[l] = best
	}
	return out
}
