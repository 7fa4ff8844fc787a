package collector

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func testServer(t *testing.T) (*httptest.Server, *store.Store, *Collector) {
	t.Helper()
	st := store.New()
	col := New(st)
	t.Cleanup(col.Close)
	srv := httptest.NewServer(col.Handler())
	t.Cleanup(srv.Close)
	return srv, st, col
}

func sampleSpans(t *testing.T) []*trace.Span {
	t.Helper()
	s := sim.New(synth.Synthetic(16, 1), sim.DefaultOptions(1))
	res, err := s.SimulateRequest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Spans
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIngestAllProtocols(t *testing.T) {
	spans := sampleSpans(t)
	encoders := map[string]struct {
		path   string
		encode func([]*trace.Span) ([]byte, error)
	}{
		"otlp":   {"/v1/traces", otel.EncodeOTLP},
		"zipkin": {"/api/v2/spans", otel.EncodeZipkin},
		"jaeger": {"/api/traces", otel.EncodeJaeger},
	}
	for name, e := range encoders {
		srv, st, col := testServer(t)
		data, err := e.encode(spans)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp := post(t, srv.URL+e.path, data)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		col.Ingest.Flush()
		if st.SpanCount() != len(spans) {
			t.Fatalf("%s: stored %d spans, want %d", name, st.SpanCount(), len(spans))
		}
		// Stored spans must assemble back into the same trace.
		traces := st.Traces(store.Query{})
		if len(traces) != 1 || traces[0].Len() != len(spans) {
			t.Fatalf("%s: assembly failed", name)
		}
	}
}

func TestRejectsBadPayload(t *testing.T) {
	srv, st, col := testServer(t)
	resp := post(t, srv.URL+"/v1/traces", []byte("{broken"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	col.Ingest.Flush()
	if st.SpanCount() != 0 {
		t.Fatal("bad payload stored spans")
	}
}

// TestDecodeErrorSeriesHasOneWriter: the sampler binds every counter to the
// same-named series, so the handler must not also append per-event 1s under
// collector.decode_errors.<proto> — with no sampler running the series stays
// empty while the counter counts.
func TestDecodeErrorSeriesHasOneWriter(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	srv, _, _ := testServer(t)
	for i := 0; i < 2; i++ {
		if resp := post(t, srv.URL+"/v1/traces", []byte("{broken")); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	}
	if got := obs.C("collector.decode_errors.otlp").Value(); got != 2 {
		t.Fatalf("decode_errors.otlp counter = %d, want 2", got)
	}
	if n := obs.Global().LookupSeries("collector.decode_errors.otlp").Len(); n != 0 {
		t.Fatalf("decode_errors.otlp series holds %d samples with no sampler running, want 0", n)
	}
}

// TestRejectsOversizedBody: a payload over MaxBodyBytes must come back as
// 413 (not a silent truncation miscounted as a decode error) and bump the
// collector.body_too_large counter.
func TestRejectsOversizedBody(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	st := store.New()
	col := New(st)
	t.Cleanup(col.Close)
	col.MaxBodyBytes = 1 << 10
	srv := httptest.NewServer(col.Handler())
	t.Cleanup(srv.Close)

	payload, err := otel.EncodeOTLP(sampleSpans(t))
	if err != nil {
		t.Fatal(err)
	}
	// Pad past the limit with trailing whitespace: still valid JSON, so a
	// truncating implementation would report a bogus decode error instead.
	payload = append(payload, bytes.Repeat([]byte{' '}, 2<<10)...)
	resp := post(t, srv.URL+"/v1/traces", payload)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if got := obs.C("collector.body_too_large").Value(); got != 1 {
		t.Fatalf("body_too_large = %d, want 1", got)
	}
	if got := obs.C("collector.decode_errors").Value(); got != 0 {
		t.Fatalf("oversized body miscounted as %d decode errors", got)
	}
	col.Ingest.Flush()
	if st.SpanCount() != 0 {
		t.Fatal("oversized payload stored spans")
	}
	// At the limit exactly, the payload still goes through.
	small, err := otel.EncodeOTLP(sampleSpans(t))
	if err != nil {
		t.Fatal(err)
	}
	col.MaxBodyBytes = int64(len(small))
	resp = post(t, srv.URL+"/v1/traces", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at-limit payload: status = %d", resp.StatusCode)
	}
}

func TestRejectsGet(t *testing.T) {
	srv, _, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestConcurrentPosts: parallel clients across all three protocols must
// land every span in the store exactly once (run under -race in CI).
func TestConcurrentPosts(t *testing.T) {
	srv, st, col := testServer(t)
	s := sim.New(synth.Synthetic(16, 5), sim.DefaultOptions(5))
	results, err := s.Run(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	encoders := []struct {
		path string
		enc  func([]*trace.Span) ([]byte, error)
	}{
		{"/v1/traces", otel.EncodeOTLP},
		{"/api/v2/spans", otel.EncodeZipkin},
		{"/api/traces", otel.EncodeJaeger},
	}
	wantSpans := 0
	var wg sync.WaitGroup
	for i, r := range results {
		wantSpans += len(r.Trace.Spans)
		e := encoders[i%len(encoders)]
		payload, err := e.enc(r.Trace.Spans)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(path string, body []byte) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s: status %d", path, resp.StatusCode)
			}
		}(e.path, payload)
	}
	wg.Wait()
	col.Ingest.Flush()
	if st.SpanCount() != wantSpans || st.TraceCount() != len(results) {
		t.Fatalf("stored %d spans / %d traces, want %d/%d",
			st.SpanCount(), st.TraceCount(), wantSpans, len(results))
	}
}

func TestHealthAndStats(t *testing.T) {
	srv, _, col := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h obs.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Component != "collector" || h.GoVersion == "" {
		t.Fatalf("healthz = %+v", h)
	}

	// /stats carries the store totals and the pipeline's drop/sample
	// accounting.
	payload, err := otel.EncodeOTLP(sampleSpans(t))
	if err != nil {
		t.Fatal(err)
	}
	post(t, srv.URL+"/v1/traces", payload)
	col.Ingest.Flush()
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body is not JSON: %v\n%s", err, body)
	}
	if stats.Spans == 0 || stats.Traces != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Ingest.SpansWritten != int64(stats.Spans) || stats.Ingest.TracesKept != 1 {
		t.Fatalf("ingest stats = %+v", stats.Ingest)
	}
}

// TestMetricsAndSeriesEndpoints: with observability enabled, an ingest must
// surface in the Prometheus exposition (global and per-protocol counters)
// and in the ingest-rate series behind /debug/series.
func TestMetricsAndSeriesEndpoints(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	srv, _, col := testServer(t)
	spans := sampleSpans(t)
	data, err := otel.EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	post(t, srv.URL+"/v1/traces", data)
	post(t, srv.URL+"/v1/traces", []byte("{broken"))
	col.Ingest.Flush()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"collector_spans_accepted_total",
		"collector_spans_accepted_otlp_total",
		"collector_decode_errors_otlp_total 1",
		"ingest_traces_kept_total 1",
		"ingest_spans_written_total",
		"# TYPE collector_http_request_us histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(srv.URL + "/debug/series?name=collector.ingest.spans")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var q obs.SeriesQueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("/debug/series not JSON: %v", err)
	}
	samples := q.Series["collector.ingest.spans"].Samples
	if len(samples) != 1 || samples[0].V != float64(len(spans)) {
		t.Errorf("ingest series = %+v, want one sample of %d spans", samples, len(spans))
	}

	// /metrics is the registry's only serialisation.
	resp, err = http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/metrics status = %d, want 404", resp.StatusCode)
	}
}

// TestBackpressureDropsCounted: when every worker queue is full, spans are
// dropped at the door, counted, and the client sees 429 — never a stall.
func TestBackpressureDropsCounted(t *testing.T) {
	st := store.New()
	// One worker, one-slot queue, and a flush barrier nobody acknowledges:
	// the worker stalls, the queue fills, and the next submit must drop.
	p := ingest.NewPipeline(st, ingest.Config{Workers: 1, QueueSize: 1, TraceTTL: -1})
	col := NewWithPipeline(st, p)
	t.Cleanup(col.Close)
	srv := httptest.NewServer(col.Handler())
	t.Cleanup(srv.Close)

	block := p.Block()
	payload, err := otel.EncodeOTLP(sampleSpans(t))
	if err != nil {
		t.Fatal(err)
	}
	post(t, srv.URL+"/v1/traces", payload) // fills the one queue slot
	resp := post(t, srv.URL+"/v1/traces", payload)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var ack struct {
		Accepted, Rejected, Dropped int
	}
	body, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("ingest ack not JSON: %v\n%s", err, body)
	}
	if ack.Dropped == 0 || ack.Accepted != 0 {
		t.Fatalf("ack = %+v, want all spans dropped", ack)
	}
	if got := p.Stats().SpansDropped; got != int64(ack.Dropped) {
		t.Fatalf("SpansDropped = %d, want %d", got, ack.Dropped)
	}
	block() // release the worker
	col.Ingest.Flush()
	if st.SpanCount() == 0 {
		t.Fatal("first payload never drained into the store")
	}
}

// TestIngestHandlerSteadyStateAllocs is the receiver's allocation gate
// (`make alloc`): with obs disabled, a warm OTLP POST through Handler() costs
// the decoder's per-span allocations (≤ 4, gated in internal/otel) plus a
// constant for the recorder, the body buffer, the pipeline hand-off and the
// response — no self-trace names or annotations formatted for a span that
// does not exist, no body re-grown chunk by chunk.
func TestIngestHandlerSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	obs.Disable()
	cfg := ingest.DefaultConfig()
	cfg.SampleRate, cfg.TraceTTL = -1, 0 // shed and flush per batch: nothing accumulates
	col := NewWithPipeline(nil, ingest.NewPipeline(nil, cfg))
	t.Cleanup(col.Close)
	h := col.Handler()
	spans := sampleSpans(t)
	body, err := otel.EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		col.Ingest.Flush()
	}
	for i := 0; i < 3; i++ {
		post()
	}
	// Measured: 81 for the 7 spans, ~55 of them the recorder, the request and
	// the access-log middleware (85 while it still formatted its metric names
	// per request); the reflection decoder alone took it to 173.
	budget := float64(4*len(spans) + 76)
	if avg := testing.AllocsPerRun(50, post); avg > budget {
		t.Fatalf("warm OTLP POST of %d spans allocates %.1f times, want <= %.0f", len(spans), avg, budget)
	}
}
