package cluster

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// TestClusterSteadyStateAllocs gates the clustering engine's steady-state
// kernels (`make alloc`): the Eq. 1 merge, the bounded-heap row selection,
// and packed-matrix access must not allocate per call — at 50k-trace
// incident scale these run billions of times per batch, and any per-call
// allocation would put the GC back on the clustering critical path. Encoding
// a trace against a vocabulary that already holds its identifiers costs the
// two result slices, not a string per span, a window of traces encoded
// before costs less than one allocation per trace, and a whole distance
// matrix costs a constant number of allocations.
func TestClusterSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	sets := randomSets(64, 1)
	a, b := sets[0], sets[1]
	if n := testing.AllocsPerRun(200, func() { _ = Distance(a, b) }); n != 0 {
		t.Fatalf("Distance allocates %.1f per call, want 0", n)
	}
	// Pairwise allocates its index (at most four arrays), the matrix and a
	// few words of bookkeeping: a count that does not grow with n, so nothing
	// per row or per pair. (AllocsPerRun measures on one core; every further
	// worker adds its goroutine.)
	for _, n := range []int{64, 256} {
		batch := randomSets(n, 1)
		if allocs := testing.AllocsPerRun(20, func() { _ = Pairwise(batch) }); allocs > 8 {
			t.Fatalf("Pairwise allocates %.1f times at n=%d, want ≤ 8 at any n", allocs, n)
		}
	}
	m := Pairwise(sets)
	scratch := make([]float64, 0, 6)
	if n := testing.AllocsPerRun(200, func() { _ = kthNearest(m, 7, 5, scratch) }); n != 0 {
		t.Fatalf("kthNearest allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.Set(3, 9, m.At(9, 3)) }); n != 0 {
		t.Fatalf("Matrix At/Set allocate %.1f per call, want 0", n)
	}
	in := NewInterner()
	tr := randomTraces(t, xrand.New(2), 1)[0]
	TraceSet(in, tr, DefaultMaxAncestors)
	if n := testing.AllocsPerRun(200, func() { _ = TraceSet(in, tr, DefaultMaxAncestors) }); n > 3 {
		t.Fatalf("TraceSet on a warm interner allocates %.1f per %d-span trace, want ≤ 3", n, tr.Len())
	}
	// A window whose traces are all encoded already gathers their codes:
	// its sets are cut from two blocks, so the count stays below one per
	// trace (one per span would be some twenty times that).
	for _, n := range []int{64, 256} {
		window := randomTraces(t, xrand.New(uint64(n)), n)
		TraceSets(window, DefaultMaxAncestors)
		if allocs := testing.AllocsPerRun(20, func() { _ = TraceSets(window, DefaultMaxAncestors) }); allocs > float64(n) {
			t.Fatalf("TraceSets on a warm %d-trace window allocates %.1f times, want ≤ 1 per trace", n, allocs)
		}
	}
}
