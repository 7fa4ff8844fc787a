package cluster

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// coreDistancesSortRef is the pre-parallel reference: a full ascending
// sort per row, out[i] = sorted row[k].
func coreDistancesSortRef(m *Matrix, minSamples int) []float64 {
	n := m.N
	out := make([]float64, n)
	buf := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			buf[j] = m.At(i, j)
		}
		sort.Float64s(buf)
		k := minSamples
		if k >= n {
			k = n - 1
		}
		out[i] = buf[k]
	}
	return out
}

// medoidsRef is the pre-parallel reference: a serial left-to-right scan
// per cluster, lowest index winning ties.
func medoidsRef(m *Matrix, labels []int) map[int]int {
	members := make(map[int][]int)
	for i, l := range labels {
		if l >= 0 {
			members[l] = append(members[l], i)
		}
	}
	out := make(map[int]int, len(members))
	for l, idx := range members {
		best, bestSum := idx[0], -1.0
		for _, i := range idx {
			sum := 0.0
			for _, j := range idx {
				sum += m.At(i, j)
			}
			if bestSum < 0 || sum < bestSum {
				best, bestSum = i, sum
			}
		}
		out[l] = best
	}
	return out
}

// hdbscanSerialReference replicates the pipeline end to end with the
// serial references: full-sort core distances, the shipped serial Prim,
// and the shared dendrogram / condense / select stages. Equivalence with
// HDBSCAN proves the bounded-heap, par.For core distances change nothing
// about the labelling.
func hdbscanSerialReference(m *Matrix, opts Options) []int {
	n := m.N
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	if n == 0 {
		return labels
	}
	if opts.MinClusterSize < 2 {
		opts.MinClusterSize = 2
	}
	if opts.MinSamples < 1 {
		opts.MinSamples = 1
	}
	if n < opts.MinClusterSize {
		return labels
	}
	core := coreDistancesSortRef(m, opts.MinSamples)
	edges := mstEdgesSerial(m, core)
	dendro := singleLinkage(edges, n)
	condensed := condense(dendro, n, opts.MinClusterSize)
	selected := selectClusters(condensed, opts)
	return labelPoints(condensed, selected, n)
}

// testMatrix builds a deterministic distance matrix with clustered
// structure and duplicate values (ties) from random weighted sets.
func testMatrix(n int, seed uint64) *Matrix {
	return Pairwise(randomSets(n, seed))
}

func TestKthNearestMatchesSortReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 150} {
		m := testMatrix(n, uint64(40+n))
		for _, k := range []int{1, 2, 5, n - 1, n + 3} {
			kk := k
			if kk >= n {
				kk = n - 1
			}
			if kk < 1 {
				kk = 1
			}
			want := coreDistancesSortRef(m, kk)
			scratch := make([]float64, 0, kk+1)
			for i := 0; i < n; i++ {
				if got := kthNearest(m, i, kk, scratch); got != want[i] {
					t.Fatalf("n=%d k=%d: kthNearest(%d) = %v, sort reference %v", n, kk, i, got, want[i])
				}
			}
		}
	}
}

func TestCoreDistancesMatchesSortReference(t *testing.T) {
	// 200 > parallelMinPoints so the worker-striped path runs (given
	// GOMAXPROCS > 1); values must still be bit-identical to the sort.
	for _, n := range []int{3, 64, 200} {
		m := testMatrix(n, uint64(70+n))
		for _, k := range []int{1, 5, 17} {
			got := coreDistances(m, k)
			want := coreDistancesSortRef(m, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: core[%d] = %v, want %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMSTTotalWeightIsMinimal(t *testing.T) {
	// Cross-check Prim against a Kruskal-style lower bound on a small
	// complete graph: same total weight.
	n := 24
	m := testMatrix(n, 5)
	core := coreDistancesSortRef(m, 3)
	edges := mstEdgesSerial(m, core)
	total := 0.0
	for _, e := range edges {
		total += e.w
	}
	// Kruskal with union-find.
	type we struct {
		a, b int
		w    float64
	}
	var all []we
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, we{i, j, mutualReach(m, core, i, j)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w < all[j].w })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	kruskal := 0.0
	for _, e := range all {
		ra, rb := find(e.a), find(e.b)
		if ra != rb {
			parent[ra] = rb
			kruskal += e.w
		}
	}
	if math.Abs(total-kruskal) > 1e-9 {
		t.Fatalf("Prim total %v != Kruskal total %v", total, kruskal)
	}
}

func TestMedoidsParallelMatchesSerial(t *testing.T) {
	// One large cluster, noise and small clusters, at several GOMAXPROCS:
	// the medoids must match the serial reference whatever the core count.
	n := 600
	m := testMatrix(n, 8)
	rng := xrand.New(9)
	labels := make([]int, n)
	for i := range labels {
		switch {
		case i < 320:
			labels[i] = 0
		case i < 340:
			labels[i] = 1
		case rng.Float64() < 0.1:
			labels[i] = -1
		default:
			labels[i] = 2
		}
	}
	want := medoidsRef(m, labels)
	for _, procs := range []int{1, 2, 5, 8} {
		testenv.SetGOMAXPROCS(t, procs)
		got := Medoids(m, labels)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d medoids, want %d", procs, len(got), len(want))
		}
		for l, idx := range want {
			if got[l] != idx {
				t.Fatalf("GOMAXPROCS=%d: medoid[%d] = %d, want %d", procs, l, got[l], idx)
			}
		}
	}
}

func TestHDBSCANMatchesSerialReference(t *testing.T) {
	// The shipped pipeline against the serial-reference pipeline: labels
	// must be identical, including above parallelMinPoints.
	for _, n := range []int{30, 200} {
		m := testMatrix(n, uint64(3000+n))
		opts := Options{MinClusterSize: 8, MinSamples: 4, SelectionEpsilon: 0.05}
		got := HDBSCAN(m, opts)
		want := hdbscanSerialReference(m, opts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: label[%d] = %d, serial reference %d", n, i, got[i], want[i])
			}
		}
	}
}

// TestHDBSCANDeterministicAcrossGOMAXPROCS is the determinism contract of
// the scale-out engine: a seeded batch of traces must produce bit-identical
// weighted sets, distance matrices, labels, and medoids at GOMAXPROCS 1, 2
// and 8 — the serial fallback and every parallel split (encoding chunks,
// matrix rows, core-distance blocks) agree exactly.
func TestHDBSCANDeterministicAcrossGOMAXPROCS(t *testing.T) {
	traces := randomTraces(t, xrand.New(42), 300)
	opts := Options{MinClusterSize: 10, MinSamples: 5, SelectionEpsilon: 0.05}

	type outcome struct {
		sets    []WeightedSet
		matrix  []float64
		labels  []int
		medoids map[int]int
	}
	run := func(procs int) outcome {
		testenv.SetGOMAXPROCS(t, procs)
		sets := TraceSets(traces, DefaultMaxAncestors)
		m := Pairwise(sets)
		labels := HDBSCAN(m, opts)
		return outcome{sets: sets, matrix: m.d, labels: labels, medoids: Medoids(m, labels)}
	}
	base := run(1)
	for _, procs := range []int{2, 8} {
		got := run(procs)
		for i, want := range base.sets {
			if s := got.sets[i]; !reflect.DeepEqual(s.ids, want.ids) || !reflect.DeepEqual(s.w, want.w) || s.Mass() != want.Mass() {
				t.Fatalf("GOMAXPROCS=%d: set %d differs:\n got %v %v %v\nwant %v %v %v", procs, i, s.ids, s.w, s.Mass(), want.ids, want.w, want.Mass())
			}
		}
		if !reflect.DeepEqual(got.matrix, base.matrix) {
			t.Fatalf("GOMAXPROCS=%d: distance matrix differs", procs)
		}
		if !reflect.DeepEqual(got.labels, base.labels) {
			t.Fatalf("GOMAXPROCS=%d: labels differ:\n got %v\nwant %v", procs, got.labels, base.labels)
		}
		if !reflect.DeepEqual(got.medoids, base.medoids) {
			t.Fatalf("GOMAXPROCS=%d: medoids = %v, want %v", procs, got.medoids, base.medoids)
		}
	}
	if numClusters(base.labels) < 2 {
		t.Fatalf("batch clusters into %d groups; the test needs structure to compare", numClusters(base.labels))
	}
}

// distanceFull is the reference Eq. 1 merge: both accumulators, no cached
// masses, against which the mass-cached Distance is checked.
func distanceFull(a, b WeightedSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 0
	}
	interMin := 0.0
	unionMax := 0.0
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			wa, wb := a.w[i], b.w[j]
			if wa < wb {
				interMin += wa
				unionMax += wb
			} else {
				interMin += wb
				unionMax += wa
			}
			i++
			j++
		case a.ids[i] < b.ids[j]:
			unionMax += a.w[i]
			i++
		default:
			unionMax += b.w[j]
			j++
		}
	}
	for ; i < len(a.ids); i++ {
		unionMax += a.w[i]
	}
	for ; j < len(b.ids); j++ {
		unionMax += b.w[j]
	}
	if unionMax == 0 {
		return 0
	}
	return 1 - interMin/unionMax
}

// TestDistanceFastPathMatchesFullMerge checks the mass-cached Distance
// against the reference double-accumulator merge: equal within float
// round-off everywhere, and exactly equal on the short-circuit cases.
func TestDistanceFastPathMatchesFullMerge(t *testing.T) {
	rng := xrand.New(77)
	in := NewInterner()
	for trial := 0; trial < 500; trial++ {
		mk := func() WeightedSet {
			m := map[string]float64{}
			for i, k := 0, 1+rng.Intn(12); i < k; i++ {
				m[string(rune('a'+rng.Intn(26)))] = rng.Float64() * 10
			}
			return SetFromMap(in, m)
		}
		a, b := mk(), mk()
		fast, full := Distance(a, b), distanceFull(a, b)
		if math.Abs(fast-full) > 1e-12 {
			t.Fatalf("trial %d: fast %v vs full %v", trial, fast, full)
		}
		if fast < 0 || fast > 1 {
			t.Fatalf("trial %d: distance %v out of [0,1]", trial, fast)
		}
	}
	// Disjoint ID ranges: the short-circuit must return exactly 1.
	lo := SetFromMap(in, map[string]float64{"a": 1, "b": 2})
	hi := SetFromMap(in, map[string]float64{"zz9": 3, "zz8": 4})
	if d := Distance(lo, hi); d != 1 {
		t.Fatalf("range-disjoint distance = %v, want exactly 1", d)
	}
	if d := distanceFull(lo, hi); d != 1 {
		t.Fatalf("range-disjoint reference = %v, want exactly 1", d)
	}
	// Zero-mass short-circuits agree with the reference merge.
	zero := SetFromMap(in, map[string]float64{"a": 0})
	some := SetFromMap(in, map[string]float64{"a": 1})
	if d := Distance(zero, some); d != distanceFull(zero, some) {
		t.Fatalf("zero-vs-some = %v, reference %v", d, distanceFull(zero, some))
	}
	if d := Distance(zero, zero); d != 0 {
		t.Fatalf("zero-vs-zero = %v, want 0", d)
	}
}
