package obs

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// TestAccessLogTracing: the per-request tracer wiring — trace ID echoed in
// X-Trace-ID, request ID joined onto the root span, the trace resident in
// the process ring, the latency histogram carrying the trace ID as an
// exemplar, and trace= on the access-log line.
func TestAccessLogTracing(t *testing.T) {
	freshRegistry(t)
	var buf bytes.Buffer
	h := AccessLog("testsvc", log.New(&buf, "", 0),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			SpanFrom(r.Context()).Child("inner.work").End()
			fmt.Fprint(w, "ok")
		}))

	req := httptest.NewRequest(http.MethodGet, "/score", nil)
	req.Header.Set(RequestIDHeader, "req-join-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	traceID := rec.Header().Get("X-Trace-ID")
	if !isLowerHex(traceID, 32) {
		t.Fatalf("X-Trace-ID = %q, want 32-hex W3C trace ID", traceID)
	}
	spans := Ring().Get(traceID)
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans for %s, want 2", len(spans), traceID)
	}
	root := spans[0]
	if root.Name != "GET /score" || root.Kind != trace.KindServer {
		t.Fatalf("root = %s/%s, want GET /score as server span", root.Name, root.Kind)
	}
	if root.Attrs["request.id"] != "req-join-1" {
		t.Fatalf("root span request.id = %q — log/span join key broken", root.Attrs["request.id"])
	}
	if root.Attrs["http.status"] != "200" {
		t.Fatalf("root span http.status = %q, want 200", root.Attrs["http.status"])
	}
	if spans[1].Name != "inner.work" || spans[1].ParentID != root.SpanID {
		t.Fatalf("handler child span not linked under root: %+v", spans[1])
	}

	exs := H("testsvc.http.request_us").Exemplars()
	if len(exs) != 1 || exs[0].TraceID != traceID {
		t.Fatalf("histogram exemplars = %+v, want one carrying %s", exs, traceID)
	}
	if line := buf.String(); !strings.Contains(line, "trace="+traceID) ||
		!strings.Contains(line, "id=req-join-1") {
		t.Fatalf("log line missing join keys: %s", line)
	}
}

// TestAccessLogHostileTraceparent: malformed headers must produce a fresh,
// valid root trace; valid headers must be continued.
func TestAccessLogHostileTraceparent(t *testing.T) {
	freshRegistry(t)
	h := AccessLog("testsvc", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))

	for _, hostile := range []string{
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zz-bogus",
		strings.Repeat("a", 4096),
	} {
		req := httptest.NewRequest(http.MethodGet, "/x", nil)
		req.Header.Set(TraceparentHeader, hostile)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		tid := rec.Header().Get("X-Trace-ID")
		if !isLowerHex(tid, 32) || allZero(tid) {
			t.Fatalf("hostile header %.40q produced trace ID %q, want fresh valid ID", hostile, tid)
		}
		if got := Ring().Get(tid); len(got) != 1 || got[0].ParentID != "" {
			t.Fatalf("hostile header poisoned the trace: %+v", got)
		}
	}

	parent := SpanContext{TraceID: NewTraceID(), SpanID: testSpanID, Sampled: true}
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set(TraceparentHeader, parent.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-ID"); got != parent.TraceID {
		t.Fatalf("valid traceparent not continued: got %q, want %q", got, parent.TraceID)
	}
	if got := Ring().Get(parent.TraceID); len(got) != 1 || got[0].ParentID != parent.SpanID {
		t.Fatalf("continued trace not linked under remote parent: %+v", got)
	}
}

// TestAccessLogSkipsScrapePaths: dashboard polling must not churn the ring.
func TestAccessLogSkipsScrapePaths(t *testing.T) {
	freshRegistry(t)
	h := AccessLog("testsvc", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for _, p := range []string{"/metrics", "/healthz", "/debug/metrics", "/debug/traces"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Header().Get("X-Trace-ID") != "" {
			t.Errorf("scrape path %s was traced", p)
		}
	}
	if n := Ring().Len(); n != 0 {
		t.Fatalf("ring holds %d traces after scrape-only requests, want 0", n)
	}
}

// callTraced issues a GET under a client span of parent, carrying the span's
// traceparent and the request ID by hand — what any caller outside Sleuth
// does to have its request joined into its own trace.
func callTraced(parent *StageSpan, url, reqID string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	sp := parent.Child("GET " + req.URL.Path)
	sp.SetKind(trace.KindClient)
	defer sp.End()
	sc := SpanContext{TraceID: sp.TraceID(), SpanID: sp.sp.SpanID, Sampled: true}
	req.Header.Set(TraceparentHeader, sc.Traceparent())
	req.Header.Set(RequestIDHeader, reqID)
	return http.DefaultClient.Do(req)
}

// TestDistributedJoin drives a two-hop request — driver → frontend →
// backend, each hop carrying traceparent by hand into AccessLog — and
// asserts one joined span tree with cross-process parent/child links, then
// round-trips the joined trace through the OTLP codec to confirm the
// span fields (cross-process ParentID, kinds, correlation attrs) survive.
func TestDistributedJoin(t *testing.T) {
	freshRegistry(t)

	backend := httptest.NewServer(AccessLog("backend", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			SpanFrom(r.Context()).Child("backend.work").End()
			fmt.Fprint(w, "done")
		})))
	defer backend.Close()

	frontend := httptest.NewServer(AccessLog("frontend", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			resp, err := callTraced(SpanFrom(r.Context()), backend.URL+"/leaf", r.Header.Get(RequestIDHeader))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			resp.Body.Close()
			fmt.Fprint(w, "ok")
		})))
	defer frontend.Close()

	// Driver: its own tracer, as sleuthctl would run.
	tracer := NewTracer("driver", SpanContext{})
	root := tracer.Start("drive", nil)
	resp, err := callTraced(root, frontend.URL+"/entry", "req-dist-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.End()

	if got := resp.Header.Get("X-Trace-ID"); got != tracer.TraceID() {
		t.Fatalf("frontend trace ID %q, want driver's %q — propagation broken", got, tracer.TraceID())
	}

	// Both server processes share this test's ring; their spans merged under
	// one trace ID. Join the driver's own spans and assemble.
	spans := append(tracer.Spans(), Ring().Get(tracer.TraceID())...)
	tr, err := trace.Assemble(spans)
	if err != nil {
		t.Fatalf("joined trace does not assemble: %v", err)
	}
	if len(tr.Roots()) != 1 {
		t.Fatalf("joined trace has %d roots, want 1 (per-process islands?)", len(tr.Roots()))
	}
	services := tr.Services()
	for _, want := range []string{"driver", "frontend", "backend"} {
		found := false
		for _, s := range services {
			found = found || s == want
		}
		if !found {
			t.Fatalf("joined trace missing %s spans (has %v)", want, services)
		}
	}
	// Walk the chain: driver client span → frontend server span → frontend
	// client span → backend server span.
	byID := map[string]*trace.Span{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	var backendRoot *trace.Span
	for _, sp := range tr.Spans {
		if sp.Service == "backend" && sp.Kind == trace.KindServer {
			backendRoot = sp
		}
	}
	if backendRoot == nil {
		t.Fatal("no backend server span")
	}
	feClient := byID[backendRoot.ParentID]
	if feClient == nil || feClient.Service != "frontend" || feClient.Kind != trace.KindClient {
		t.Fatalf("backend server's parent = %+v, want frontend client span", feClient)
	}
	feServer := byID[feClient.ParentID]
	if feServer == nil || feServer.Kind != trace.KindServer || feServer.Attrs["request.id"] != "req-dist-1" {
		t.Fatalf("frontend server span = %+v, want request.id=req-dist-1", feServer)
	}

	// OTLP round trip: every field of the joined tree must survive.
	data, err := otel.EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := otel.DecodeOTLP(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(spans) {
		t.Fatalf("round trip lost spans: %d → %d", len(spans), len(decoded))
	}
	dByID := map[string]*trace.Span{}
	for _, sp := range decoded {
		dByID[sp.SpanID] = sp
	}
	for _, want := range spans {
		got := dByID[want.SpanID]
		if got == nil {
			t.Fatalf("span %s missing after round trip", want.SpanID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("span mutated in OTLP round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestConcurrentRequestTracing: parallel requests build disjoint trees into
// the shared ring without racing (the suite runs under -race in verify).
func TestConcurrentRequestTracing(t *testing.T) {
	freshRegistry(t)
	h := AccessLog("testsvc", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := SpanFrom(r.Context()).Child("work")
			sp.Annotate("k", "v")
			sp.End()
		}))
	const workers, perWorker = 8, 50
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/c", nil))
				ids[g] = append(ids[g], rec.Header().Get("X-Trace-ID"))
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("trace ID %s issued twice — trees not disjoint", id)
			}
			seen[id] = true
		}
	}
	// Ring capacity (default 256) bounds residency; every resident trace
	// must be a well-formed 2-span tree.
	for _, sum := range Ring().List() {
		if sum.Spans != 2 {
			t.Fatalf("resident trace %s has %d spans, want 2", sum.TraceID, sum.Spans)
		}
	}
}

// TestExemplarSteadyStateAllocs gates the enabled exemplar-record path: one
// bounded allocation per call (the exemplar record itself), and the
// disabled path stays at zero.
func TestExemplarSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := newHistogram("x_us")
	tid := NewTraceID()
	h.ObserveExemplar(42, tid) // warm
	if allocs := testing.AllocsPerRun(1000, func() { h.ObserveExemplar(42, tid) }); allocs > 1 {
		t.Errorf("ObserveExemplar allocates %.1f allocs/op, want ≤ 1", allocs)
	}
	var nilH *Histogram
	if allocs := testing.AllocsPerRun(1000, func() { nilH.ObserveExemplar(42, tid) }); allocs != 0 {
		t.Errorf("disabled ObserveExemplar allocates %.1f allocs/op, want 0", allocs)
	}
	var nilT *Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := nilT.Start("x", nil)
		sp.Annotate("k", "v")
		sp.End()
	}); allocs != 0 {
		t.Errorf("disabled tracer path allocates %.1f allocs/op, want 0", allocs)
	}
}
