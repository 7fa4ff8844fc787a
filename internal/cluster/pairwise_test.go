package cluster

import (
	"fmt"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// syntheticTraces simulates n requests against a Synthetic-rpcs application:
// the few-hundred-identifier, heavily overlapping sets the pipeline clusters,
// which randomSets (8-32 identifiers over 40 words) do not resemble.
func syntheticTraces(tb testing.TB, rpcs, n int, seed uint64) []*trace.Trace {
	tb.Helper()
	res, err := sim.New(synth.Synthetic(rpcs, seed), sim.DefaultOptions(seed)).Run(0, n)
	if err != nil {
		tb.Fatal(err)
	}
	return sim.Traces(res)
}

// randomSets builds n weighted span sets with overlapping identifier
// vocabularies, the shape Pairwise sees from one incident's traces.
func randomSets(n int, seed uint64) []WeightedSet {
	r := xrand.New(seed)
	in := NewInterner()
	sets := make([]WeightedSet, n)
	for i := range sets {
		m := map[string]float64{}
		k := 8 + r.Intn(24)
		for j := 0; j < k; j++ {
			id := fmt.Sprintf("op-%d", r.Intn(40))
			m[id] += 0.001 + r.Float64()*10
		}
		sets[i] = SetFromMap(in, m)
	}
	return sets
}

// checkPairwiseExact requires every cell of Pairwise(sets) to be bit-identical
// to Distance on the same pair, the matrix symmetric and its diagonal zero.
func checkPairwiseExact(t *testing.T, what string, sets []WeightedSet) {
	t.Helper()
	got := Pairwise(sets)
	for i := range sets {
		if got.At(i, i) != 0 {
			t.Fatalf("%s: diagonal (%d,%d) = %v", what, i, i, got.At(i, i))
		}
		for j := range sets {
			if want := Distance(sets[i], sets[j]); i != j && got.At(i, j) != want {
				t.Fatalf("%s: cell (%d,%d) = %v, Distance = %v", what, i, j, got.At(i, j), want)
			}
			if got.At(i, j) != got.At(j, i) {
				t.Fatalf("%s: asymmetric at (%d,%d)", what, i, j)
			}
		}
	}
}

// TestPairwiseMirrorSplitExact proves neither the inverted-index accumulation
// nor the mirror-row work split changes a bit of the output, on odd and even
// sizes (the middle row has no mirror), on sets the size and overlap of the
// pipeline's, and on the cases Distance short-circuits.
func TestPairwiseMirrorSplitExact(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 40} {
		checkPairwiseExact(t, fmt.Sprintf("random sets, n=%d", n), randomSets(n, uint64(100+n)))
	}
	for _, dmax := range []int{0, DefaultMaxAncestors} {
		checkPairwiseExact(t, fmt.Sprintf("random traces, dmax=%d", dmax), TraceSets(randomTraces(t, xrand.New(3), 40), dmax))
	}
	checkPairwiseExact(t, "Synthetic-64 batch", TraceSets(syntheticTraces(t, 64, 60, 5), DefaultMaxAncestors))

	in := NewInterner()
	low := map[string]float64{"a": 1, "b": 2.5, "c": 0.25}
	edge := []WeightedSet{
		SetFromMap(in, low),
		SetFromMap(in, map[string]float64{}),               // empty
		SetFromMap(in, map[string]float64{"a": 0, "c": 0}), // zero mass
		SetFromMap(in, low),                                // identical to set 0
		SetFromMap(in, map[string]float64{"b": 4, "d": 1}),
		SetFromMap(in, map[string]float64{"x": 3, "y": 0.5}), // ID range disjoint from all above
		SetFromMap(in, map[string]float64{"a": 0}),
	}
	checkPairwiseExact(t, "edge cases", edge)
	// A hand-built set has no cached mass: its row and column are the guarded
	// full merge's values, the other cells are unaffected.
	hand := WeightedSet{IDs: []int32{0, 1, 3}, W: []float64{2, 3, 0.5}}
	for _, at := range []int{0, 3, len(edge)} {
		mixed := append(append(append([]WeightedSet{}, edge[:at]...), hand), edge[at:]...)
		checkPairwiseExact(t, fmt.Sprintf("hand-built set at %d", at), mixed)
	}
}

// TestPairwiseVocabularyMismatchPanics: a batch mixing two vocabularies
// panics in the caller's goroutine, as Distance does on such a pair.
func TestPairwiseVocabularyMismatchPanics(t *testing.T) {
	sets := randomSets(5, 1)
	sets[3] = SetFromMap(NewInterner(), map[string]float64{"op-1": 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Pairwise across vocabularies did not panic")
		}
	}()
	Pairwise(sets)
}

// BenchmarkPairwise measures the parallel distance matrix against the
// incident sizes the pipeline clusters. On a multi-core machine the
// mirror-row pairing keeps all workers busy to the end of the triangle.
func BenchmarkPairwise(b *testing.B) {
	run := func(name string, sets []WeightedSet) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Pairwise(sets)
			}
		})
	}
	for _, n := range []int{64, 256} {
		run(fmt.Sprintf("n=%d", n), randomSets(n, uint64(n)))
	}
	// The regime of the benchmark's diagnose_large workload.
	run("n=480/traces", TraceSets(syntheticTraces(b, 256, 480, 1), DefaultMaxAncestors))
}

// BenchmarkPairwiseSequential is the single-worker reference for the
// speedup comparison with BenchmarkPairwise.
func BenchmarkPairwiseSequential(b *testing.B) {
	for _, n := range []int{64, 256} {
		sets := randomSets(n, uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMatrix(n)
				for a := 0; a < n; a++ {
					for c := a + 1; c < n; c++ {
						m.Set(a, c, Distance(sets[a], sets[c]))
					}
				}
			}
		})
	}
}
