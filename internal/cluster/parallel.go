package cluster

import (
	"math"
	"sync"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/par"
)

// Parallel clustering kernels. Every kernel here is bit-identical to its
// serial counterpart for any GOMAXPROCS: work is split into fixed chunks
// that fan out on par.For, floating-point accumulation orders match the
// serial scans, and argmin reductions walk chunks in ascending order with
// strict-less comparison so ties resolve to the lowest index exactly as a
// serial left-to-right scan would.

// stageTimer starts timing one clustering stage into its histogram (the
// sampler projects it to <name>.p50/.p99/.count series for `sleuthctl
// watch`). With observability disabled the returned stop function is a
// no-op and no clock is read.
func stageTimer(name string) func() {
	if obs.Global() == nil {
		return func() {}
	}
	start := time.Now()
	return func() { obs.H(name).ObserveDuration(time.Since(start)) }
}

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
	done := stageTimer("cluster.core_distances_us")
	defer done()
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

// parallelMinPoints gates the parallel kernels: below this size the
// per-round coordination costs more than the arithmetic it spreads.
const parallelMinPoints = 128

// --- minimum spanning tree -------------------------------------------------

// mstCand is one worker's candidate for the next tree vertex. Padded to a
// cache line so adjacent workers' once-per-round writes do not false-share.
type mstCand struct {
	idx  int
	dist float64
	_    [48]byte
}

// mstEdges builds the minimum spanning tree of the mutual-reachability
// graph with Prim's algorithm. The O(n²) inner relaxation dominates
// HDBSCAN after the core-distance fix, so above parallelMinPoints it runs
// on mstEdgesParallel's chunked workers, as many as par.Workers grants.
func mstEdges(m *Matrix, core []float64) []edge {
	done := stageTimer("cluster.mst_us")
	defer done()
	workers := par.Workers(m.N)
	if workers <= 1 || m.N < parallelMinPoints {
		return mstEdgesSerial(m, core)
	}
	return mstEdgesParallel(m, core, workers)
}

// mstEdgesSerial is the reference O(n²) Prim implementation.
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

// mstEdgesParallel runs Prim with the relaxation and argmin scans fused
// into one pass per round, striped over persistent workers: each round,
// worker w relaxes its fixed chunk against the vertex added last round and
// reports the chunk's nearest non-tree vertex; the coordinator reduces the
// candidates in ascending chunk order with strict-less comparison, which
// reproduces the serial left-to-right argmin (lowest index wins ties)
// exactly. dist values only ever come from the same mutualReach calls the
// serial code makes, so the tree — and everything downstream — is
// bit-identical for any worker count. The workers persist across rounds
// instead of running on par.For: Prim needs one barrier per round, and a
// par.For per round would start n × workers goroutines per window.
func mstEdgesParallel(m *Matrix, core []float64, workers int) []edge {
	n := m.N
	inTree := make([]bool, n)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	from[0] = -1

	cands := make([]mstCand, workers)
	starts := make([]chan int, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		starts[w] = make(chan int, 1)
		lo := w * chunk
		hi := min(lo+chunk, n)
		go func(w, lo, hi int) {
			for best := range starts[w] {
				bi := -1
				bd := math.Inf(1)
				for i := lo; i < hi; i++ {
					if inTree[i] {
						continue
					}
					if best >= 0 {
						if mr := mutualReach(m, core, best, i); mr < dist[i] {
							dist[i] = mr
							from[i] = best
						}
					}
					if bi < 0 || dist[i] < bd {
						bi, bd = i, dist[i]
					}
				}
				cands[w].idx, cands[w].dist = bi, bd
				wg.Done()
			}
		}(w, lo, hi)
	}

	edges := make([]edge, 0, n-1)
	last := -1 // no relaxation before the first pick (dist[0] = 0 seeds it)
	for iter := 0; iter < n; iter++ {
		wg.Add(workers)
		for w := range starts {
			starts[w] <- last
		}
		wg.Wait()
		best := -1
		bd := math.Inf(1)
		for w := range cands {
			if c := &cands[w]; c.idx >= 0 && (best < 0 || c.dist < bd) {
				best, bd = c.idx, c.dist
			}
		}
		inTree[best] = true
		if from[best] >= 0 {
			edges = append(edges, edge{a: from[best], b: best, w: dist[best]})
		}
		last = best
	}
	for w := range starts {
		close(starts[w])
	}
	sortEdges(edges)
	return edges
}

// --- medoids ---------------------------------------------------------------

// medoidChunkSize bounds one medoid work item: a chunk of candidate
// members scored against the whole cluster. Small clusters are one item;
// large ones fan out across workers without a separate code path.
const medoidChunkSize = 256

// medoids is the kernel behind Medoids: per cluster, the member with the
// minimal distance sum to all members, lowest index winning ties. Work
// items are (cluster, member-chunk) pairs fanned out on par.For (inline
// below parallelMinPoints points); each item's sums iterate members in
// slice order — the serial order — so sums are bit-identical, and the
// per-cluster reduction walks chunks in ascending order with strict-less
// comparison to preserve the serial tie-break.
func medoids(m *Matrix, labels []int) map[int]int {
	members := make(map[int][]int)
	order := make([]int, 0, 8)
	for i, l := range labels {
		if l < 0 {
			continue
		}
		if _, seen := members[l]; !seen {
			order = append(order, l)
		}
		members[l] = append(members[l], i)
	}

	type item struct {
		label  int
		lo, hi int // candidate positions within members[label]
	}
	type result struct {
		pos int // candidate position, -1 when unset
		sum float64
	}
	var items []item
	for _, l := range order {
		idx := members[l]
		for lo := 0; lo < len(idx); lo += medoidChunkSize {
			items = append(items, item{label: l, lo: lo, hi: min(lo+medoidChunkSize, len(idx))})
		}
	}
	results := make([]result, len(items))
	score := func(_, slot int) {
		it := items[slot]
		idx := members[it.label]
		best, bestSum := -1, 0.0
		for p := it.lo; p < it.hi; p++ {
			i := idx[p]
			sum := 0.0
			for _, j := range idx {
				sum += m.At(i, j)
			}
			if best < 0 || sum < bestSum {
				best, bestSum = p, sum
			}
		}
		results[slot] = result{pos: best, sum: bestSum}
	}
	if len(labels) < parallelMinPoints {
		for slot := range items {
			score(0, slot)
		}
	} else {
		par.For(len(items), score)
	}

	out := make(map[int]int, len(order))
	slot := 0
	for _, l := range order {
		idx := members[l]
		best, bestSum := -1, 0.0
		for lo := 0; lo < len(idx); lo += medoidChunkSize {
			if r := results[slot]; r.pos >= 0 && (best < 0 || r.sum < bestSum) {
				best, bestSum = r.pos, r.sum
			}
			slot++
		}
		out[l] = idx[best]
	}
	return out
}
