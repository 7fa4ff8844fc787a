package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func mkTrace(t *testing.T, id string, spans ...*trace.Span) *trace.Trace {
	t.Helper()
	tr, err := trace.Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func span(tid, id, parent, svc, name string, kind trace.Kind, start, end int64, errFlag bool) *trace.Span {
	return &trace.Span{TraceID: tid, SpanID: id, ParentID: parent, Service: svc, Name: name, Kind: kind, Start: start, End: end, Error: errFlag}
}

func TestTraceSetMergesSameIdentifier(t *testing.T) {
	tr := mkTrace(t, "t",
		span("t", "r", "", "fe", "h", trace.KindServer, 0, 10000, false),
		span("t", "a", "r", "redis", "GET", trace.KindClient, 100, 1100, false),
		span("t", "b", "r", "redis", "GET", trace.KindClient, 2000, 3500, false),
	)
	in := NewInterner()
	s := TraceSet(in, tr, DefaultMaxAncestors)
	if s.Len() != 2 {
		t.Fatalf("set size = %d, want 2 (merged GETs)", s.Len())
	}
	rootID := in.Intern(SpanIdentifier(tr, 0, DefaultMaxAncestors))
	// Merged weight = (1000 + 1500)/1000 ms.
	found := false
	for i, id := range s.ids {
		if id != rootID {
			found = true
			if math.Abs(s.w[i]-2.5) > 1e-9 {
				t.Fatalf("merged weight = %v, want 2.5", s.w[i])
			}
		}
	}
	if !found {
		t.Fatal("merged identifier missing")
	}
}

func TestSpanIdentifierComponents(t *testing.T) {
	tr := mkTrace(t, "t",
		span("t", "r", "", "fe", "h", trace.KindServer, 0, 10000, false),
		span("t", "a", "r", "db", "query", trace.KindClient, 100, 1100, false),
		span("t", "b", "r", "db", "query", trace.KindClient, 2000, 3000, true),
	)
	var okIdx, errIdx int
	for i, sp := range tr.Spans {
		if sp.SpanID == "a" {
			okIdx = i
		}
		if sp.SpanID == "b" {
			errIdx = i
		}
	}
	// Error status differentiates identifiers.
	if SpanIdentifier(tr, okIdx, 3) == SpanIdentifier(tr, errIdx, 3) {
		t.Fatal("error status not part of the identifier")
	}
}

func TestIdentifierIncludesCallPath(t *testing.T) {
	// The same op called from different parents must differ (d_max > 0).
	t1 := mkTrace(t, "t1",
		span("t1", "r", "", "fe", "opA", trace.KindServer, 0, 10000, false),
		span("t1", "c", "r", "db", "query", trace.KindClient, 100, 1100, false),
	)
	t2 := mkTrace(t, "t2",
		span("t2", "r", "", "fe", "opB", trace.KindServer, 0, 10000, false),
		span("t2", "c", "r", "db", "query", trace.KindClient, 100, 1100, false),
	)
	var i1, i2 int
	for i, sp := range t1.Spans {
		if sp.SpanID == "c" {
			i1 = i
		}
	}
	for i, sp := range t2.Spans {
		if sp.SpanID == "c" {
			i2 = i
		}
	}
	if SpanIdentifier(t1, i1, 3) == SpanIdentifier(t2, i2, 3) {
		t.Fatal("ancestor path not part of the identifier")
	}
	if SpanIdentifier(t1, i1, 0) != SpanIdentifier(t2, i2, 0) {
		t.Fatal("with d_max=0 the identifiers should collapse")
	}
}

// randomTraces builds n traces over a small operation vocabulary with
// random topologies (chains, fans, several roots), repeated operations under
// one parent and zero-duration spans, so identifiers collide within and
// across traces.
func randomTraces(t *testing.T, r *xrand.Rand, n int) []*trace.Trace {
	t.Helper()
	out := make([]*trace.Trace, n)
	for k := range out {
		tid := fmt.Sprint("t", k)
		spans := make([]*trace.Span, r.IntRange(1, 40))
		for i := range spans {
			parent := ""
			if i > 0 && r.Bernoulli(0.95) {
				parent = fmt.Sprint("s", r.Intn(i))
			}
			start := int64(r.Intn(50_000))
			spans[i] = span(tid, fmt.Sprint("s", i), parent, fmt.Sprint("svc", r.Intn(4)), fmt.Sprint("op", r.Intn(6)),
				trace.KindClient, start, start+int64(r.Intn(3))*int64(r.Intn(20_000)), r.Bernoulli(0.1))
		}
		out[k] = mkTrace(t, tid, spans...)
	}
	return out
}

// referenceIdentifier joins the §3.3.1 tuple: the span's own fields, then
// the names of up to dmax ancestors, nearest first.
func referenceIdentifier(tr *trace.Trace, i, dmax int) string {
	sp := tr.Spans[i]
	parts := []string{sp.Service, sp.Name, string(sp.Kind), "0"}
	if sp.Error {
		parts[3] = "1"
	}
	for p, d := tr.Parent(i), 0; p >= 0 && d < dmax; p, d = tr.Parent(p), d+1 {
		parts = append(parts, tr.Spans[p].Name)
	}
	return strings.Join(parts, "\x1f")
}

// referenceTraceSet is the encoding TraceSet replaced: one identifier string
// per span, interned in span order, weights summed in a per-trace map.
func referenceTraceSet(in *Interner, tr *trace.Trace, dmax int) (ids []int32, w []float64, mass float64) {
	m := map[int32]float64{}
	for i, sp := range tr.Spans {
		wt := float64(sp.Duration()) / 1000.0
		if wt < 0.001 {
			wt = 0.001
		}
		m[in.Intern(referenceIdentifier(tr, i, dmax))] += wt
	}
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		w = append(w, m[id])
		mass += m[id]
	}
	return ids, w, mass
}

// TestTraceSetsMatchReference: the allocation-free identifier path hands out
// the same interner IDs in the same order and sums the same weights in the
// same order as the string-per-span reference, so IDs, W and Mass are equal
// bit for bit — through TraceSets on a fresh vocabulary and through TraceSet
// on a pre-populated one.
func TestTraceSetsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, dmax := range []int{0, 1, 3} {
			traces := randomTraces(t, xrand.New(seed), 40)
			for k, tr := range traces {
				for i := range tr.Spans {
					if got, want := SpanIdentifier(tr, i, dmax), referenceIdentifier(tr, i, dmax); got != want {
						t.Fatalf("seed %d dmax %d trace %d span %d: SpanIdentifier = %q, want %q", seed, dmax, k, i, got, want)
					}
				}
			}
			check := func(what string, got []WeightedSet, in *Interner) {
				for k, tr := range traces {
					ids, w, mass := referenceTraceSet(in, tr, dmax)
					if !reflect.DeepEqual(got[k].ids, ids) || !reflect.DeepEqual(got[k].w, w) || got[k].Mass() != mass {
						t.Fatalf("seed %d dmax %d %s trace %d:\n got %v %v %v\nwant %v %v %v",
							seed, dmax, what, k, got[k].ids, got[k].w, got[k].Mass(), ids, w, mass)
					}
				}
			}
			check("TraceSets", TraceSets(traces, dmax), NewInterner())

			// A vocabulary that already holds other identifiers, some of
			// them this batch's: string order and ID order now disagree.
			pre, ref := NewInterner(), NewInterner()
			for _, in := range []*Interner{pre, ref} {
				in.Intern("unrelated")
				in.Intern(SpanIdentifier(traces[7], traces[7].Len()-1, dmax))
				in.Intern(SpanIdentifier(traces[3], 0, dmax))
			}
			got := make([]WeightedSet, len(traces))
			for k, tr := range traces {
				got[k] = TraceSet(pre, tr, dmax)
			}
			check("TraceSet on a pre-populated interner", got, ref)
			if pre.Size() != ref.Size() {
				t.Fatalf("seed %d dmax %d: vocabulary size %d, want %d", seed, dmax, pre.Size(), ref.Size())
			}
		}
	}
}

// TestTraceSetsWorkersMatchReference: however many workers TraceSets encodes
// and gathers on, and whether the batch is large or smaller than the worker
// count, IDs, W, Mass and the vocabulary are the reference's.
func TestTraceSetsWorkersMatchReference(t *testing.T) {
	traces := randomTraces(t, xrand.New(11), 519)
	for _, dmax := range []int{0, DefaultMaxAncestors} {
		for _, procs := range []int{1, 2, 8, 16} {
			testenv.SetGOMAXPROCS(t, procs)
			for _, n := range []int{len(traces), 3} {
				got, ref := TraceSets(traces[:n], dmax), NewInterner()
				for k, tr := range traces[:n] {
					ids, w, mass := referenceTraceSet(ref, tr, dmax)
					if !reflect.DeepEqual(got[k].ids, ids) || !reflect.DeepEqual(got[k].w, w) || got[k].Mass() != mass || got[k].vocab != got[0].vocab {
						t.Fatalf("dmax %d GOMAXPROCS %d, trace %d of %d:\n got %v %v %v\nwant %v %v %v",
							dmax, procs, k, n, got[k].ids, got[k].w, got[k].Mass(), ids, w, mass)
					}
				}
				if got[0].vocab.Size() != ref.Size() {
					t.Fatalf("dmax %d GOMAXPROCS %d, %d traces: vocabulary size %d, want %d", dmax, procs, n, got[0].vocab.Size(), ref.Size())
				}
			}
		}
	}
}

func TestDistanceIdentityAndDisjoint(t *testing.T) {
	in := NewInterner()
	a := SetFromMap(in, map[string]float64{"x": 2, "y": 3})
	if d := Distance(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	b := SetFromMap(in, map[string]float64{"z": 5})
	if d := Distance(a, b); d != 1 {
		t.Fatalf("disjoint distance = %v", d)
	}
	if d := Distance(WeightedSet{}, WeightedSet{}); d != 0 {
		t.Fatalf("empty distance = %v", d)
	}
}

func TestDistanceVocabularyMismatchPanics(t *testing.T) {
	a := SetFromMap(NewInterner(), map[string]float64{"x": 2})
	b := SetFromMap(NewInterner(), map[string]float64{"x": 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Distance across vocabularies did not panic")
		}
	}()
	Distance(a, b)
}

func TestDistanceWorkedExample(t *testing.T) {
	// A={x:2,y:3}, B={x:1,y:4}: min-sum=1+3=4, max-sum=2+4=6 → d = 1-4/6.
	in := NewInterner()
	a := SetFromMap(in, map[string]float64{"x": 2, "y": 3})
	b := SetFromMap(in, map[string]float64{"x": 1, "y": 4})
	want := 1 - 4.0/6.0
	if d := Distance(a, b); math.Abs(d-want) > 1e-12 {
		t.Fatalf("distance = %v, want %v", d, want)
	}
}

func TestDistanceDurationSensitivity(t *testing.T) {
	// Changing a heavy span's weight must move the distance more than the
	// same relative change on a light span (Eq. 1 design goal).
	in := NewInterner()
	base := SetFromMap(in, map[string]float64{"heavy": 100, "light": 1})
	heavyUp := SetFromMap(in, map[string]float64{"heavy": 200, "light": 1})
	lightUp := SetFromMap(in, map[string]float64{"heavy": 100, "light": 2})
	if Distance(base, heavyUp) <= Distance(base, lightUp) {
		t.Fatal("distance not more sensitive to heavy spans")
	}
}

func TestSetFromMapSortedByID(t *testing.T) {
	// A pre-populated interner assigns IDs out of string order; the set must
	// still come out ID-sorted with weights aligned.
	in := NewInterner()
	in.Intern("z") // 0
	in.Intern("a") // 1
	s := SetFromMap(in, map[string]float64{"a": 1, "m": 2, "z": 3})
	for i := 1; i < len(s.ids); i++ {
		if s.ids[i-1] >= s.ids[i] {
			t.Fatalf("IDs not sorted: %v", s.ids)
		}
	}
	byID := map[int32]float64{in.Intern("a"): 1, in.Intern("m"): 2, in.Intern("z"): 3}
	for i, id := range s.ids {
		if s.w[i] != byID[id] {
			t.Fatalf("weight for id %d = %v, want %v", id, s.w[i], byID[id])
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	rng := xrand.New(1)
	in := NewInterner()
	randSet := func() WeightedSet {
		m := map[string]float64{}
		for i := 0; i < rng.IntRange(1, 8); i++ {
			m[string(rune('a'+rng.Intn(10)))] = rng.Float64()*10 + 0.01
		}
		return SetFromMap(in, m)
	}
	check := func(_ uint8) bool {
		a, b, c := randSet(), randSet(), randSet()
		dab, dba := Distance(a, b), Distance(b, a)
		if math.Abs(dab-dba) > 1e-15 {
			return false
		}
		if dab < 0 || dab > 1 {
			return false
		}
		// Triangle inequality (weighted Jaccard distance is a metric).
		dac, dcb := Distance(a, c), Distance(c, b)
		return dab <= dac+dcb+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// lineMatrix builds a distance matrix from 1-D coordinates.
func lineMatrix(coords []float64) *Matrix {
	m := NewMatrix(len(coords))
	for i := range coords {
		for j := i + 1; j < len(coords); j++ {
			m.Set(i, j, math.Abs(coords[i]-coords[j]))
		}
	}
	return m
}

func twoBlobCoords(rng *xrand.Rand, perBlob int) []float64 {
	var coords []float64
	for i := 0; i < perBlob; i++ {
		coords = append(coords, rng.Normal(0, 0.5))
	}
	for i := 0; i < perBlob; i++ {
		coords = append(coords, rng.Normal(100, 0.5))
	}
	return coords
}

func TestHDBSCANTwoBlobs(t *testing.T) {
	rng := xrand.New(2)
	coords := twoBlobCoords(rng, 15)
	labels := HDBSCAN(lineMatrix(coords), Options{MinClusterSize: 5, MinSamples: 3})
	// Both blobs must form clusters, with distinct labels.
	firstLabel, secondLabel := labels[0], labels[15]
	if firstLabel < 0 || secondLabel < 0 {
		t.Fatalf("blob cores labelled noise: %v", labels)
	}
	if firstLabel == secondLabel {
		t.Fatalf("blobs merged: %v", labels)
	}
	for i, l := range labels {
		want := firstLabel
		if i >= 15 {
			want = secondLabel
		}
		if l != want && l != -1 {
			t.Fatalf("point %d labelled %d, want %d or noise", i, l, want)
		}
	}
	// The overwhelming majority must be clustered, not noise.
	noise := 0
	for _, l := range labels {
		if l < 0 {
			noise++
		}
	}
	if noise > 4 {
		t.Fatalf("%d/30 points labelled noise", noise)
	}
}

func TestHDBSCANOutlierIsNoise(t *testing.T) {
	rng := xrand.New(3)
	coords := twoBlobCoords(rng, 10)
	coords = append(coords, 50) // far from both blobs
	labels := HDBSCAN(lineMatrix(coords), Options{MinClusterSize: 4, MinSamples: 2})
	if labels[len(labels)-1] != -1 {
		t.Fatalf("outlier labelled %d", labels[len(labels)-1])
	}
}

func TestHDBSCANSmallInputAllNoise(t *testing.T) {
	labels := HDBSCAN(lineMatrix([]float64{0, 1, 2}), Options{MinClusterSize: 5, MinSamples: 2})
	for _, l := range labels {
		if l != -1 {
			t.Fatalf("tiny input clustered: %v", labels)
		}
	}
	if got := HDBSCAN(NewMatrix(0), DefaultOptions()); len(got) != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestHDBSCANEpsilonMergesFineSplits(t *testing.T) {
	rng := xrand.New(5)
	// Two sub-blobs 2 apart (fine structure) and another blob 100 away.
	var coords []float64
	for i := 0; i < 8; i++ {
		coords = append(coords, rng.Normal(0, 0.2))
	}
	for i := 0; i < 8; i++ {
		coords = append(coords, rng.Normal(2, 0.2))
	}
	for i := 0; i < 8; i++ {
		coords = append(coords, rng.Normal(100, 0.2))
	}
	m := lineMatrix(coords)
	fine := HDBSCAN(m, Options{MinClusterSize: 4, MinSamples: 2, SelectionEpsilon: 0})
	coarse := HDBSCAN(m, Options{MinClusterSize: 4, MinSamples: 2, SelectionEpsilon: 5})
	nFine := numClusters(fine)
	nCoarse := numClusters(coarse)
	if nCoarse >= nFine {
		t.Fatalf("epsilon did not merge: fine=%d coarse=%d", nFine, nCoarse)
	}
	if nCoarse != 2 {
		t.Fatalf("coarse clustering found %d clusters, want 2", nCoarse)
	}
}

func numClusters(labels []int) int {
	set := map[int]bool{}
	for _, l := range labels {
		if l >= 0 {
			set[l] = true
		}
	}
	return len(set)
}

func TestMedoids(t *testing.T) {
	// Points 0,1,2 at coords 0,1,10: medoid of the cluster {0,1,2} is 1.
	m := lineMatrix([]float64{0, 1, 10})
	labels := []int{0, 0, 0}
	med := Medoids(m, labels)
	if med[0] != 1 {
		t.Fatalf("medoid = %d, want 1", med[0])
	}
	// Noise points excluded.
	labels = []int{0, 0, -1}
	med = Medoids(m, labels)
	if _, ok := med[-1]; ok {
		t.Fatal("noise cluster got a medoid")
	}
}

func TestPairwiseMatchesSequential(t *testing.T) {
	rng := xrand.New(7)
	in := NewInterner()
	var sets []WeightedSet
	for i := 0; i < 20; i++ {
		m := map[string]float64{}
		for j := 0; j < 5; j++ {
			m[string(rune('a'+rng.Intn(8)))] = rng.Float64() * 10
		}
		sets = append(sets, SetFromMap(in, m))
	}
	m := Pairwise(sets)
	for i := 0; i < 20; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := 0; j < 20; j++ {
			want := Distance(sets[i], sets[j])
			if math.Abs(m.At(i, j)-want) > 1e-12 {
				t.Fatalf("matrix[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary([]int{0, 0, 1, -1})
	if s != "noise=1 c0=2 c1=1" {
		t.Fatalf("Summary = %q", s)
	}
}

func BenchmarkDistance100Spans(b *testing.B) {
	rng := xrand.New(8)
	in := NewInterner()
	mk := func() WeightedSet {
		m := map[string]float64{}
		for i := 0; i < 100; i++ {
			m[string(rune('a'+rng.Intn(60)))+string(rune('a'+i%26))] = rng.Float64() * 10
		}
		return SetFromMap(in, m)
	}
	a, c := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Distance(a, c)
	}
}

func BenchmarkHDBSCAN100(b *testing.B) {
	rng := xrand.New(9)
	coords := make([]float64, 100)
	for i := range coords {
		coords[i] = rng.Float64() * 100
	}
	m := lineMatrix(coords)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HDBSCAN(m, Options{MinClusterSize: 5, MinSamples: 3})
	}
}
