package cluster

import (
	"fmt"
	"math"
	"slices"
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
}

// checkPairwiseBits requires every cell (i, j), i < j, of Pairwise(sets) to
// carry the bits of Distance(sets[i], sets[j]), whatever the weights.
func checkPairwiseBits(t *testing.T, what string, sets []WeightedSet) {
	t.Helper()
	got := Pairwise(sets)
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if g, want := got.At(i, j), Distance(sets[i], sets[j]); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("%s: cell (%d,%d) = %v (%#x), Distance = %v (%#x)", what, i, j, g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
	}
}

// TestPairwiseDenseColumnsExact: batches that mix identifiers Pairwise lays
// out as dense columns with identifiers it walks through posting lists —
// held by one set fewer than, exactly and one more than a quarter of the
// sets, or holding a weight of 0, −0, a negative, NaN or +Inf — give every
// cell Distance's bits.
func TestPairwiseDenseColumnsExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, -1.5, math.NaN(), math.Inf(1)}
	for _, n := range []int{1, 2, 3, 5, 8, 39, 40, 41, 64} {
		r := xrand.New(uint64(200 + n))
		maps := make([]map[string]float64, n)
		for j := range maps {
			maps[j] = map[string]float64{}
		}
		// hold gives the identifier to count random sets, the first of
		// them weighted first and the others rest, where random stands
		// for a fresh positive weight.
		const random = -1
		hold := func(name string, count int, first, rest float64) {
			for k, j := range r.Perm(n)[:min(max(count, 0), n)] {
				w := rest
				if k == 0 {
					w = first
				}
				if w == random {
					w = 0.001 + r.Float64()*10
				}
				maps[j][name] = w
			}
		}
		quarter := (n + denseShare - 1) / denseShare // fewest holders of a dense column
		for k, count := range []int{quarter - 1, quarter, quarter + 1, n / 2, n} {
			hold(fmt.Sprint("common-", k), count, random, random)
		}
		for k, w := range specials {
			// One special weight among positive ones, and a column of
			// nothing but that weight.
			hold(fmt.Sprint("one-special-", k), max(quarter, n/2), w, random)
			hold(fmt.Sprint("all-special-", k), max(quarter, n/2), w, w)
			hold(fmt.Sprint("rare-special-", k), 1, w, w)
		}
		for k := 0; k < 6; k++ {
			hold(fmt.Sprint("sparse-", k), 1+r.Intn(max(quarter-1, 1)), random, random)
		}
		in := NewInterner()
		sets := make([]WeightedSet, n)
		for j, m := range maps {
			sets[j] = SetFromMap(in, m)
		}
		checkPairwiseBits(t, fmt.Sprintf("n=%d", n), sets)
		if n >= 8 {
			dense, sparse := 0, 0
			for _, c := range buildPostings(sets).col {
				if c >= 0 {
					dense++
				} else {
					sparse++
				}
			}
			if dense == 0 || sparse == 0 {
				t.Fatalf("n=%d: %d dense and %d sparse identifiers, want both", n, dense, sparse)
			}
		}
	}

	// Random batches: any identifier may hold any of the special weights.
	r := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(48)
		in := NewInterner()
		sets := make([]WeightedSet, n)
		for j := range sets {
			m := map[string]float64{}
			for k, size := 0, r.Intn(14); k < size; k++ {
				w := 0.001 + r.Float64()*10
				if r.Bernoulli(0.05) {
					w = specials[r.Intn(len(specials))]
				}
				m[fmt.Sprint("op-", r.Intn(20))] = w
			}
			sets[j] = SetFromMap(in, m)
		}
		checkPairwiseBits(t, fmt.Sprintf("trial %d, n=%d", trial, n), sets)
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

// BenchmarkTraceSets encodes an incident_e2e-sized window and the batch
// BenchmarkPairwise's n=480/traces arm compares: cold on traces no window
// has met (assembled afresh, outside the timer, before every call), warm on
// traces whose codes an earlier call stored.
func BenchmarkTraceSets(b *testing.B) {
	all := syntheticTraces(b, 256, 480, 1)
	for _, n := range []int{24, 480} {
		traces := all[:n]
		b.Run(fmt.Sprintf("n=%d/cold", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := make([]*trace.Trace, len(traces))
				for k, tr := range traces {
					var err error
					if fresh[k], err = trace.Assemble(slices.Clone(tr.Spans)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				_ = TraceSets(fresh, DefaultMaxAncestors)
			}
		})
		b.Run(fmt.Sprintf("n=%d/warm", n), func(b *testing.B) {
			b.ReportAllocs()
			_ = TraceSets(traces, DefaultMaxAncestors)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = TraceSets(traces, DefaultMaxAncestors)
			}
		})
	}
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
