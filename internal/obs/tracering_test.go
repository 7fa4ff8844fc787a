package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// mkTrace builds a two-span request trace for ring tests.
func mkTrace(id string, durUS int64, hasError bool) []*trace.Span {
	return []*trace.Span{
		{TraceID: id, SpanID: id + "-root", Service: "test", Name: "GET /x",
			Kind: trace.KindServer, Start: 1000, End: 1000 + durUS, Error: hasError},
		{TraceID: id, SpanID: id + "-child", ParentID: id + "-root", Service: "test",
			Name: "work", Kind: trace.KindInternal, Start: 1100, End: 1200},
	}
}

// TestTraceRingFIFOEviction: the ring keeps every trace offered — healthy
// or failed — and, once full, evicts strictly oldest-first.
func TestTraceRingFIFOEviction(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(mkTrace(fmt.Sprintf("t%d", i), 100, i%2 == 1))
		if want := min(i+1, 3); len(r.List()) != want {
			t.Fatalf("%d resident traces after %d adds, want %d", len(r.List()), i+1, want)
		}
	}
	for i, resident := range []bool{false, false, true, true, true} {
		if got := r.Get(fmt.Sprintf("t%d", i)) != nil; got != resident {
			t.Fatalf("t%d resident = %v, want %v (FIFO at capacity 3)", i, got, resident)
		}
	}
	if list := r.List(); len(list) != 3 || list[0].TraceID != "t4" || list[2].TraceID != "t2" {
		t.Fatalf("List() = %+v, want t4,t3,t2 newest first", list)
	}
}

// TestTraceRingGetReturnsCopies: callers may mutate what Get hands out
// without corrupting the resident trace.
func TestTraceRingGetReturnsCopies(t *testing.T) {
	r := NewTraceRing(2)
	r.Add(mkTrace("t1", 100, false))
	got := r.Get("t1")
	got[0].Name, got[0].Error = "mutated", true
	if again := r.Get("t1"); again[0].Name != "GET /x" || again[0].Error {
		t.Fatalf("mutating a Get result changed the resident span: %+v", again[0])
	}
}

func TestTraceRingMergeAndEvict(t *testing.T) {
	r := NewTraceRing(2)
	r.Add(mkTrace("t1", 100, false))
	r.Add(mkTrace("t2", 100, false))

	// Same trace ID from "another process": merges, deduplicating span IDs.
	more := []*trace.Span{
		mkTrace("t1", 100, false)[0], // duplicate span ID — must not double
		{TraceID: "t1", SpanID: "t1-remote", ParentID: "t1-root",
			Service: "other", Name: "downstream", Start: 1150, End: 1180},
	}
	r.Add(more)
	if got := len(r.Get("t1")); got != 3 {
		t.Fatalf("merged trace has %d spans, want 3 (dedup by span ID)", got)
	}
	if len(r.List()) != 2 {
		t.Fatalf("%d resident traces, want 2 (merge must not claim a slot)", len(r.List()))
	}

	// Capacity 2: a third distinct trace evicts the oldest (t1 — it kept its
	// original slot through the merge; t2 claimed the newer slot... eviction
	// is slot-order, so the next Add overwrites the slot after t2's).
	r.Add(mkTrace("t3", 100, false))
	if len(r.List()) != 2 {
		t.Fatalf("%d resident traces after eviction, want 2", len(r.List()))
	}
	if r.Get("t1") != nil {
		t.Fatal("oldest trace still resident after eviction")
	}
	if r.Get("t3") == nil || r.Get("t2") == nil {
		t.Fatal("newer traces evicted instead of oldest")
	}
}

func TestTraceRingListAndSlowest(t *testing.T) {
	r := NewTraceRing(8)
	r.Add(mkTrace("fast", 50, false))
	r.Add(mkTrace("slow", 5000, true))
	r.Add(mkTrace("mid", 500, false))

	list := r.List()
	if len(list) != 3 {
		t.Fatalf("List() = %d rows, want 3", len(list))
	}
	if list[0].TraceID != "mid" { // newest first
		t.Fatalf("List()[0] = %s, want mid (newest first)", list[0].TraceID)
	}
	slow := r.Slowest()
	if slow[0].TraceID != "slow" || slow[0].DurationUS != 5000 {
		t.Fatalf("Slowest()[0] = %+v, want the 5000µs trace", slow[0])
	}
	if !slow[0].Error {
		t.Fatal("error flag lost in summary")
	}
	if len(slow[0].Services) != 1 || slow[0].Services[0] != "test" {
		t.Fatalf("Services = %v, want [test]", slow[0].Services)
	}
}

func TestTraceRingNilSafe(t *testing.T) {
	var r *TraceRing
	r.Add(mkTrace("x", 1, false))
	if r.Get("x") != nil || r.List() != nil || r.Slowest() != nil {
		t.Fatal("nil ring must be fully inert")
	}
}

func TestTracesHandler(t *testing.T) {
	r := NewTraceRing(8)
	r.Add(mkTrace("aaa", 100, false))
	r.Add(mkTrace("bbb", 900, false))
	h := TracesHandler(r)

	// Listing.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list TracesListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("listing did not decode: %v", err)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("listing has %d traces, want 2", len(list.Traces))
	}

	// Slowest with limit.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces?slowest=1&n=1", nil))
	list = TracesListResponse{}
	_ = json.Unmarshal(rec.Body.Bytes(), &list)
	if len(list.Traces) != 1 || list.Traces[0].TraceID != "bbb" {
		t.Fatalf("slowest?n=1 = %+v, want only bbb", list.Traces)
	}

	// Fetch by ID.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces?id=aaa", nil))
	var spans []*trace.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil || len(spans) != 2 {
		t.Fatalf("fetch by ID: spans=%d err=%v, want 2 spans", len(spans), err)
	}

	// Missing ID → 404; nil ring → empty listing, not a panic.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/debug/traces?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("missing trace returned %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	TracesHandler(nil)(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("nil ring listing returned %d, want 200", rec.Code)
	}
}

// TestTraceRingConcurrent hammers the ring from parallel writers and
// readers — the shared-ring half of the race-clean concurrent-tracer
// requirement (run under -race in make verify).
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-i%d", g, i)
				r.Add(mkTrace(id, int64(50+i), i%7 == 0))
				if i%10 == 0 {
					r.List()
					r.Slowest()
					r.Get(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.List()) != 32 {
		t.Fatalf("%d resident traces after overfill, want capacity 32", len(r.List()))
	}
}
