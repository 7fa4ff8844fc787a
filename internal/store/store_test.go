package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func populated(t testing.TB, n int) (*Store, *sim.Simulator) {
	t.Helper()
	app := synth.Synthetic(16, 1)
	s := sim.New(app, sim.DefaultOptions(1))
	results, err := s.Run(0, n)
	if err != nil {
		t.Fatal(err)
	}
	// Multiple shards even on one-core test boxes, so the sharded paths
	// (partitioned adds, parallel scans, limit merge) are always exercised.
	st := NewSharded(4)
	for _, r := range results {
		st.AddTrace(r.Trace)
	}
	return st, s
}

func TestAddAndCounts(t *testing.T) {
	st, _ := populated(t, 30)
	if st.TraceCount() != 30 {
		t.Fatalf("TraceCount = %d", st.TraceCount())
	}
	if st.SpanCount() < 60 {
		t.Fatalf("SpanCount = %d", st.SpanCount())
	}
	if len(st.Services()) == 0 {
		t.Fatal("no services indexed")
	}
}

func TestQueryAll(t *testing.T) {
	st, _ := populated(t, 25)
	traces := st.Traces(Query{})
	if len(traces) != 25 {
		t.Fatalf("query-all returned %d", len(traces))
	}
}

func TestQueryLimit(t *testing.T) {
	st, _ := populated(t, 25)
	if got := len(st.Traces(Query{Limit: 7})); got != 7 {
		t.Fatalf("limit query returned %d", got)
	}
}

func TestQueryByTraceID(t *testing.T) {
	st, _ := populated(t, 10)
	all := st.Traces(Query{})
	got := st.Traces(Query{TraceIDs: []string{all[3].TraceID}})
	if len(got) != 1 || got[0].TraceID != all[3].TraceID {
		t.Fatalf("by-ID query = %v", got)
	}
	if got := st.Traces(Query{TraceIDs: []string{"missing"}}); len(got) != 0 {
		t.Fatal("missing ID returned traces")
	}
}

func TestQueryByService(t *testing.T) {
	st, _ := populated(t, 30)
	svc := st.Services()[0]
	got := st.Traces(Query{Service: svc})
	if len(got) == 0 {
		t.Fatal("service query empty")
	}
	for _, tr := range got {
		found := false
		for _, s := range tr.Services() {
			if s == svc {
				found = true
			}
		}
		if !found {
			t.Fatalf("trace %s lacks service %s", tr.TraceID, svc)
		}
	}
}

// TestQueryByIDHonoursService: the service predicate applies to an
// explicit-ID query too, not only to a scan.
func TestQueryByIDHonoursService(t *testing.T) {
	st := NewSharded(4)
	st.AddSpans([]*trace.Span{
		mkSpan("t1", "a", "", "front", 0, 10),
		mkSpan("t1", "b", "a", "cart", 1, 5),
		mkSpan("t2", "a", "", "front", 0, 10),
	})
	ids := []string{"t1", "t2"}
	if got := traceIDs(st.Traces(Query{TraceIDs: ids, Service: "cart"})); !reflect.DeepEqual(got, []string{"t1"}) {
		t.Fatalf("by-ID query for service cart = %v, want [t1]", got)
	}
	if got := traceIDs(st.Traces(Query{TraceIDs: ids, Service: "front"})); !reflect.DeepEqual(got, ids) {
		t.Fatalf("by-ID query for service front = %v, want %v", got, ids)
	}
	if got := st.Traces(Query{TraceIDs: ids, Service: "absent"}); len(got) != 0 {
		t.Fatalf("by-ID query for an unknown service returned %v", traceIDs(got))
	}
}

func mkSpan(tid, id, parent, svc string, start, end int64) *trace.Span {
	return &trace.Span{TraceID: tid, SpanID: id, ParentID: parent, Service: svc, Name: "op", Kind: trace.KindServer, Start: start, End: end}
}

func TestQueryTimeRange(t *testing.T) {
	st, _ := populated(t, 20)
	all := st.Traces(Query{})
	mid := all[10].Spans[all[10].Roots()[0]].Start
	early := st.Traces(Query{MaxStart: mid})
	late := st.Traces(Query{MinStart: mid + 1})
	if len(early)+len(late) != 20 {
		t.Fatalf("time partition: %d + %d != 20", len(early), len(late))
	}
}

func TestQueryErrorsAndSlow(t *testing.T) {
	app := synth.Synthetic(16, 2)
	s := sim.New(app, sim.DefaultOptions(2))
	svc := app.ServiceAtCallDepth(1)
	plan := chaos.NewPlan(app, chaos.Fault{
		Type: chaos.FaultCPU, Level: chaos.LevelContainer,
		Target: app.Services[svc].Name, SlowFactor: 40, ErrorProb: 0.5,
	})
	results, err := s.RunWithInjector(0, 40, chaos.NewInjector(app, plan))
	if err != nil {
		t.Fatal(err)
	}
	st := New()
	for _, r := range results {
		st.AddTrace(r.Trace)
	}
	errTraces := st.Traces(Query{OnlyErrors: true})
	for _, tr := range errTraces {
		if !tr.HasError() {
			t.Fatal("error query returned clean trace")
		}
	}
	slow := st.Traces(Query{MinRootDuration: 100_000})
	for _, tr := range slow {
		if tr.RootDuration() < 100_000 {
			t.Fatal("slow query returned fast trace")
		}
	}
}

func TestOpSummaries(t *testing.T) {
	st, _ := populated(t, 40)
	sums := st.OpSummaries()
	if len(sums) == 0 {
		t.Fatal("no op summaries")
	}
	for _, s := range sums {
		if s.Count <= 0 || s.Median <= 0 {
			t.Fatalf("degenerate summary %+v", s)
		}
		if s.P95 < s.Median || s.P99 < s.P95 {
			t.Fatalf("percentiles not ordered: %+v", s)
		}
		if s.MedianExclusive > s.Median {
			t.Fatalf("exclusive median exceeds duration median: %+v", s)
		}
		if s.ErrorRate < 0 || s.ErrorRate > 1 {
			t.Fatalf("error rate out of range: %+v", s)
		}
	}
}

// TestOpSummariesColdWarmLate: the aggregate reads the memoised traces, so
// its rows must not depend on whether the memo is cold, warm or was just
// dropped by a late span.
func TestOpSummariesColdWarmLate(t *testing.T) {
	st, _ := populated(t, 40)
	cold := st.OpSummaries()
	if warm := st.OpSummaries(); !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm OpSummaries differ from cold")
	}
	root := st.Traces(Query{Limit: 1})[0]
	rs := root.Spans[root.Roots()[0]]
	late := mkSpan(root.TraceID, "late-span", rs.SpanID, "late-svc", rs.Start+1, rs.Start+2)
	st.AddSpans([]*trace.Span{late})
	got := st.OpSummaries()
	fresh := NewSharded(1)
	if err := copyStore(st, fresh); err != nil {
		t.Fatal(err)
	}
	if want := fresh.OpSummaries(); !reflect.DeepEqual(got, want) {
		t.Fatal("OpSummaries after a late span differ from a cold store holding the same spans")
	}
	if len(got) != len(cold)+1 {
		t.Fatalf("late span's operation missing: %d rows, want %d", len(got), len(cold)+1)
	}
}

func copyStore(from, to *Store) error {
	var buf bytes.Buffer
	if err := from.SaveJSONL(&buf); err != nil {
		return err
	}
	_, err := to.LoadJSONL(&buf)
	return err
}

func TestJSONLRoundTrip(t *testing.T) {
	st, _ := populated(t, 15)
	var buf bytes.Buffer
	if err := st.SaveJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	st2 := New()
	skipped, err := st2.LoadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("clean round trip skipped %d lines", skipped)
	}
	if st2.SpanCount() != st.SpanCount() || st2.TraceCount() != st.TraceCount() {
		t.Fatalf("round trip: %d/%d vs %d/%d spans/traces",
			st2.SpanCount(), st2.TraceCount(), st.SpanCount(), st.TraceCount())
	}
}

func TestFileRoundTrip(t *testing.T) {
	st, _ := populated(t, 10)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st2 := New()
	if _, err := st2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if st2.TraceCount() != 10 {
		t.Fatalf("file round trip lost traces: %d", st2.TraceCount())
	}
}

// TestLoadJSONLSkipsAndCounts: malformed lines must be skipped and counted
// — not abort the whole load — mirroring the collector's per-span
// skip-and-count policy.
func TestLoadJSONLSkipsAndCounts(t *testing.T) {
	input := `{"traceId":"t1","spanId":"a","service":"s","name":"op","kind":"server","start":1,"end":5}
{broken
not json at all
{"traceId":"t2","spanId":"b","service":"s","name":"op","kind":"server","start":2,"end":6}
{"traceId":"","spanId":"c","service":"s","name":"op","kind":"server","start":2,"end":6}
{"traceId":"t2","spanId":"","service":"s","name":"op","kind":"server","start":2,"end":6}
{"traceId":"t2","spanId":"d","service":"s","name":"op","kind":"bogus","start":2,"end":6}
{"traceId":"t2","spanId":"e","service":"s","name":"op","kind":"server","start":6,"end":2}
`
	st := New()
	skipped, err := st.LoadJSONL(bytes.NewBufferString(input))
	if err != nil {
		t.Fatal(err)
	}
	// Two malformed lines plus the four spans the ingest normalize stage
	// would reject: empty trace ID, empty span ID, invalid kind, End < Start.
	if skipped != 6 {
		t.Fatalf("skipped = %d, want 6", skipped)
	}
	if st.SpanCount() != 2 || st.TraceCount() != 2 {
		t.Fatalf("loaded %d spans / %d traces, want 2/2", st.SpanCount(), st.TraceCount())
	}
	if got := len(st.Traces(Query{})); got != 2 {
		t.Fatalf("%d of 2 loaded traces assemble", got)
	}
}

// TestLoadJSONLLongLine: a span line over the old 1 MiB scanner cap must
// load instead of killing the stream.
func TestLoadJSONLLongLine(t *testing.T) {
	big := strings.Repeat("x", 2<<20) // 2 MiB attribute value
	line := `{"traceId":"t1","spanId":"a","service":"s","name":"op","kind":"server","start":1,"end":5,"attrs":{"blob":"` + big + `"}}`
	st := New()
	skipped, err := st.LoadJSONL(bytes.NewBufferString(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || st.SpanCount() != 1 {
		t.Fatalf("long line: skipped=%d spans=%d, want 0/1", skipped, st.SpanCount())
	}
	got := st.Traces(Query{})
	if len(got) != 1 || got[0].Spans[0].Attrs["blob"] != big {
		t.Fatal("long attribute did not round-trip")
	}
}

// TestQueryDuplicateTraceIDs: a repeated ID in Query.TraceIDs must not
// return the same trace twice.
func TestQueryDuplicateTraceIDs(t *testing.T) {
	st, _ := populated(t, 10)
	all := st.Traces(Query{})
	id := all[2].TraceID
	got := st.Traces(Query{TraceIDs: []string{id, id, id}})
	if len(got) != 1 || got[0].TraceID != id {
		t.Fatalf("duplicate-ID query returned %d traces", len(got))
	}
	// Mixed duplicates preserve request order of the distinct IDs.
	got = st.Traces(Query{TraceIDs: []string{all[5].TraceID, id, all[5].TraceID}})
	if len(got) != 2 || got[0].TraceID != all[5].TraceID || got[1].TraceID != id {
		t.Fatalf("mixed duplicate query = %v", traceIDs(got))
	}
}

func traceIDs(trs []*trace.Trace) []string {
	out := make([]string, len(trs))
	for i, tr := range trs {
		out[i] = tr.TraceID
	}
	return out
}

// TestShardEquivalence: every query must return the same trace set on a
// single-shard store and a many-shard store (order may differ across shard
// layouts; contents may not).
func TestShardEquivalence(t *testing.T) {
	app := synth.Synthetic(16, 3)
	s := sim.New(app, sim.DefaultOptions(3))
	results, err := s.Run(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	single, sharded := NewSharded(1), NewSharded(8)
	for _, r := range results {
		single.AddTrace(r.Trace)
		sharded.AddTrace(r.Trace)
	}
	if single.SpanCount() != sharded.SpanCount() || single.TraceCount() != sharded.TraceCount() {
		t.Fatalf("counts diverge: %d/%d vs %d/%d",
			single.SpanCount(), single.TraceCount(), sharded.SpanCount(), sharded.TraceCount())
	}
	svc := single.Services()[0]
	all := single.Traces(Query{})
	mid := all[30].Spans[all[30].Roots()[0]].Start
	queries := []Query{
		{},
		{Service: svc},
		{OnlyErrors: true},
		{MinRootDuration: 50_000},
		{MinStart: mid},
		{MaxStart: mid},
		{TraceIDs: traceIDs(all[:7])},
	}
	for qi, q := range queries {
		a, b := traceIDs(single.Traces(q)), traceIDs(sharded.Traces(q))
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("query %d: single=%v sharded=%v", qi, a, b)
		}
	}
	// Limit queries return exactly Limit traces on both layouts.
	for _, limit := range []int{1, 5, 59} {
		if got := len(sharded.Traces(Query{Limit: limit})); got != limit {
			t.Fatalf("sharded Limit=%d returned %d", limit, got)
		}
	}
	if strings.Join(single.Services(), ",") != strings.Join(sharded.Services(), ",") {
		t.Fatal("service sets diverge")
	}
}

func TestConcurrentAccess(t *testing.T) {
	st, s := populated(t, 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := s.SimulateRequest(100+g*10+i, nil)
				if err != nil {
					t.Error(err)
					return
				}
				st.AddTrace(res.Trace)
				_ = st.Traces(Query{Limit: 5})
				_ = st.SpanCount()
			}
		}(g)
	}
	wg.Wait()
	if st.TraceCount() != 50 {
		t.Fatalf("TraceCount = %d after concurrent adds", st.TraceCount())
	}
}

// TestLateSpanNewVersion: a span that arrives after a trace was read drops
// the memo — the next read sees the new structure — and the trace handed
// out before the write is left exactly as it was.
func TestLateSpanNewVersion(t *testing.T) {
	st := NewSharded(2)
	st.AddSpans([]*trace.Span{mkSpan("t", "root", "", "front", 0, 100), mkSpan("t", "a", "root", "cart", 10, 30)})
	before := st.Traces(Query{})[0]
	if again := st.Traces(Query{TraceIDs: []string{"t"}})[0]; again != before {
		t.Fatal("second read did not return the memoised trace")
	}
	if before.Len() != 2 || before.ExclusiveDuration(0) != 80 {
		t.Fatalf("before: len=%d exclusive(root)=%d, want 2 / 80", before.Len(), before.ExclusiveDuration(0))
	}
	st.AddSpans([]*trace.Span{mkSpan("t", "b", "root", "db", 50, 90)})
	after := st.Traces(Query{})[0]
	if after == before || after.Len() != 3 {
		t.Fatalf("after the late span: same trace=%v len=%d, want a new 3-span trace", after == before, after.Len())
	}
	if kids := after.Children(0); len(kids) != 2 || after.Spans[kids[1]].SpanID != "b" || after.Parent(kids[1]) != 0 {
		t.Fatalf("late span not linked under the root: children=%v", kids)
	}
	if after.ExclusiveDuration(0) != 40 || after.ExclusiveDuration(2) != 40 {
		t.Fatalf("after: exclusive(root)=%d exclusive(b)=%d, want 40 / 40", after.ExclusiveDuration(0), after.ExclusiveDuration(2))
	}
	if got := st.Traces(Query{Service: "db"}); len(got) != 1 || got[0] != after {
		t.Fatal("service query does not see the late span's service")
	}
	if before.Len() != 2 || len(before.Children(0)) != 1 || before.ExclusiveDuration(0) != 80 {
		t.Fatal("the trace returned before the write changed")
	}
}

// TestFailedAssemblyMemoised: a trace that cannot be assembled (duplicate
// span ID) is skipped by every query and assembled once per version, yet it
// is still counted and still persisted.
func TestFailedAssemblyMemoised(t *testing.T) {
	st := NewSharded(1)
	st.AddSpans([]*trace.Span{
		mkSpan("bad", "x", "", "front", 0, 10), mkSpan("bad", "x", "", "front", 1, 5),
		mkSpan("good", "r", "", "front", 0, 10),
	})
	e := st.shards[0].byTrace["bad"]
	queries := []Query{{}, {Service: "front"}, {TraceIDs: []string{"bad", "good"}}, {MaxStart: 5}}
	var failed *memo
	for round := 0; round < 2; round++ {
		for qi, q := range queries {
			if got := traceIDs(st.Traces(q)); !reflect.DeepEqual(got, []string{"good"}) {
				t.Fatalf("round %d query %d returned %v, want [good]", round, qi, got)
			}
			switch {
			case e.memo == nil || e.memo.tr != nil:
				t.Fatalf("round %d query %d: failed assembly not memoised", round, qi)
			case failed == nil:
				failed = e.memo
			case e.memo != failed:
				t.Fatalf("round %d query %d: version assembled again", round, qi)
			}
		}
		// A later write clears the mark; the next read retries (and, the
		// duplicate still being there, fails again) exactly once.
		st.AddSpans([]*trace.Span{mkSpan("bad", fmt.Sprint("late", round), "x", "front", 2, 3)})
		if e.memo != nil {
			t.Fatal("write did not drop the failed mark")
		}
		failed = nil
	}
	if st.TraceCount() != 2 || st.SpanCount() != 5 {
		t.Fatalf("counts = %d traces / %d spans, want 2 / 5", st.TraceCount(), st.SpanCount())
	}
	var buf bytes.Buffer
	if err := st.SaveJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"traceId":"bad"`); got != 4 {
		t.Fatalf("SaveJSONL wrote %d spans of the unassemblable trace, want 4", got)
	}
}

// TestConcurrentSameTrace: writers append to the very traces readers are
// fetching. Every returned trace must be a complete snapshot of some prefix
// of that trace's writes — spans s0..s(k-1), chained, nothing missing.
func TestConcurrentSameTrace(t *testing.T) {
	const traces, spansPer, readers = 4, 60, 3
	st := NewSharded(2)
	id := func(k int) string { return fmt.Sprint("t", k) }
	for k := 0; k < traces; k++ {
		st.AddSpans([]*trace.Span{mkSpan(id(k), "s0", "", "svc", 0, 1000)})
	}
	var writers, wg sync.WaitGroup
	done := make(chan struct{})
	for k := 0; k < traces; k++ {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			for i := 1; i < spansPer; i++ {
				st.AddSpans([]*trace.Span{mkSpan(id(k), fmt.Sprint("s", i), fmt.Sprint("s", i-1), "svc", int64(i), 1000)})
			}
		}(k)
	}
	check := func(trs []*trace.Trace) {
		for _, tr := range trs {
			if tr.Len() < 1 || tr.Len() > spansPer || len(tr.Roots()) != 1 {
				t.Errorf("trace %s: %d spans, %d roots", tr.TraceID, tr.Len(), len(tr.Roots()))
				return
			}
			for i, sp := range tr.Spans {
				if sp.SpanID != fmt.Sprint("s", i) || tr.Depth(i) != i {
					t.Errorf("trace %s of %d spans is not the prefix s0..s%d: span %d is %s at depth %d",
						tr.TraceID, tr.Len(), tr.Len()-1, i, sp.SpanID, tr.Depth(i))
					return
				}
			}
		}
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if g == 0 {
					check(st.Traces(Query{TraceIDs: []string{id(0), id(1), id(2), id(3)}}))
				} else {
					check(st.Traces(Query{}))
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	wg.Wait()
	final := st.Traces(Query{})
	check(final)
	for _, tr := range final {
		if tr.Len() != spansPer {
			t.Fatalf("trace %s settled at %d spans, want %d", tr.TraceID, tr.Len(), spansPer)
		}
	}
}

// TestStoreSteadyStateAllocs gates the warm read path (`make alloc`): a
// window fetch over memoised traces allocates for what it returns — the
// per-shard ID snapshots, result slices and scan goroutines — and nothing
// per span or per rejected trace.
func TestStoreSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	st, _ := populated(t, 200)
	all := st.Traces(Query{})
	starts := make([]int64, len(all))
	for i, tr := range all {
		starts[i] = tr.Spans[tr.Roots()[0]].Start
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	window := Query{MinStart: starts[0], MaxStart: starts[9]}
	k := len(st.Traces(window))
	if k < 10 || k > 20 {
		t.Fatalf("window returns %d traces, want about 10", k)
	}
	// Per shard: the ID snapshot, the scan goroutine and its closure, and
	// the doubling steps of a small result; plus the merged result.
	// Assembling a trace costs 15 allocations whatever its size, so
	// re-assembling even the returned traces alone would cost several
	// times this.
	shards := float64(st.Shards())
	if n := testing.AllocsPerRun(50, func() { _ = st.Traces(window) }); n > 6*shards+float64(k) {
		t.Fatalf("warm window fetch of %d of %d memoised traces allocates %.0f per query, want ≤ %.0f", k, len(all), n, 6*shards+float64(k))
	}
	if n := testing.AllocsPerRun(50, func() { _ = st.Traces(Query{MinStart: starts[len(starts)-1] + 1}) }); n > 4*shards {
		t.Fatalf("warm scan rejecting all %d traces allocates %.0f per query, want ≤ %.0f", len(all), n, 4*shards)
	}
}

// FuzzLoadJSONL: LoadJSONL never panics on a stream, every span the store
// holds afterwards passes (*trace.Span).Valid, and the read paths over
// what it loaded (queries, summaries, services) do not panic either.
func FuzzLoadJSONL(f *testing.F) {
	f.Add([]byte(`{"traceId":"t1","spanId":"a","service":"s","name":"op","kind":"server","start":1,"end":5}
{broken
{"traceId":"t1","spanId":"b","parentId":"a","service":"db","name":"get","kind":"client","start":2,"end":4,"error":true}
{"traceId":"t2","spanId":"c","service":"s","name":"op","kind":"bogus","start":2,"end":6}
{"traceId":"t2","spanId":"d","service":"s","name":"op","kind":"server","start":6,"end":2}
`))
	var buf bytes.Buffer
	src, _ := populated(f, 2)
	if err := src.SaveJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewSharded(2)
		if _, err := st.LoadJSONL(bytes.NewReader(data)); err != nil {
			t.Fatalf("LoadJSONL on an in-memory reader: %v", err)
		}
		var out bytes.Buffer
		if err := st.SaveJSONL(&out); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var sp trace.Span
			if err := json.Unmarshal(line, &sp); err != nil {
				t.Fatalf("held span does not re-encode: %v", err)
			}
			if !sp.Valid() {
				t.Fatalf("store holds an invalid span: %s", line)
			}
			held++
		}
		if held != st.SpanCount() {
			t.Fatalf("SaveJSONL wrote %d spans, SpanCount says %d", held, st.SpanCount())
		}
		st.Traces(Query{})
		st.OpSummaries()
		st.Services()
	})
}
