package ingest

import (
	"fmt"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// span builds a minimal valid span for pipeline tests.
func span(traceID, spanID, parentID string, start, end int64, hasErr bool) *trace.Span {
	return &trace.Span{
		TraceID: traceID, SpanID: spanID, ParentID: parentID,
		Service: "svc", Name: "op", Kind: trace.KindServer,
		Start: start, End: end, Error: hasErr,
	}
}

// healthyTrace is a two-span well-formed trace.
func healthyTrace(id string) []*trace.Span {
	return []*trace.Span{
		span(id, id+"-root", "", 0, 1000, false),
		span(id, id+"-child", id+"-root", 100, 900, false),
	}
}

// syncPipeline builds a pipeline that flushes windows after every batch
// (TraceTTL < 0).
func syncPipeline(t *testing.T, st *store.Store, cfg Config) *Pipeline {
	t.Helper()
	cfg.TraceTTL = -1
	p := NewPipeline(st, cfg)
	t.Cleanup(p.Stop)
	return p
}

// --- Sampler policy -------------------------------------------------------

func TestSamplerKeepsErrors(t *testing.T) {
	// Even a shed-everything sampler keeps traces carrying an error span.
	s := NewSampler(-1, 99)
	for i := 0; i < 50; i++ {
		keep, reason := s.Keep(true, nil, fmt.Sprintf("t%d", i))
		if !keep || reason != keptError {
			t.Fatalf("error trace shed (keep=%v reason=%d)", keep, reason)
		}
	}
}

func TestSamplerKeepsLatencyOutliers(t *testing.T) {
	s := NewSampler(-1, 99)
	s.SetBaselineFromSummaries([]store.OpSummary{
		{OpKey: "svc\x1fop\x1fserver", Median: 100, P95: 500, P99: 1000},
	})
	if s.baselineSize() != 1 {
		t.Fatalf("baseline size = %d", s.baselineSize())
	}
	slow := span("t1", "a", "", 0, 5000, false) // 5000 > P99 of 1000
	keep, reason := s.Keep(false, slow, "t1")
	if !keep || reason != keptLatency {
		t.Fatalf("latency outlier shed (keep=%v reason=%d)", keep, reason)
	}
	fast := span("t2", "b", "", 0, 500, false) // under P99: subject to shed
	if keep, _ := s.Keep(false, fast, "t2"); keep {
		t.Fatal("healthy under-baseline trace kept by shed-all sampler")
	}
	// An operation missing from the baseline falls through to probability.
	other := span("t3", "c", "", 0, 1<<40, false)
	other.Service = "unknown"
	if keep, _ := s.Keep(false, other, "t3"); keep {
		t.Fatal("unknown-op trace kept by shed-all sampler")
	}
}

// TestSamplerPercentileSelection: the tail percentile rounds up to the next
// aggregate the store keeps, so the latency rule never keeps more than the
// percentile asks for — 90 means P95, not the median.
func TestSamplerPercentileSelection(t *testing.T) {
	sum := []store.OpSummary{{OpKey: "svc\x1fop\x1fserver", Median: 100, P95: 500, P99: 1000}}
	cases := []struct {
		pct  float64
		keep int64 // durations above this are kept
	}{{50, 100}, {90, 500}, {95, 500}, {97, 1000}, {99, 1000}}
	for _, c := range cases {
		s := NewSampler(-1, c.pct)
		s.SetBaselineFromSummaries(sum)
		over := span("t", "a", "", 0, c.keep+1, false)
		if keep, _ := s.Keep(false, over, "t"); !keep {
			t.Fatalf("pct=%v: duration %d not kept", c.pct, c.keep+1)
		}
		under := span("t", "a", "", 0, c.keep, false)
		if keep, _ := s.Keep(false, under, "t"); keep {
			t.Fatalf("pct=%v: duration %d kept", c.pct, c.keep)
		}
	}
}

func TestSamplerRate(t *testing.T) {
	// Rate 1 keeps everything; rate r keeps ≈ r of healthy traces,
	// deterministically per trace ID.
	all := NewSampler(1, 99)
	if keep, reason := all.Keep(false, nil, "any"); !keep || reason != keptProb {
		t.Fatal("rate-1 sampler shed a trace")
	}
	s := NewSampler(0.3, 99)
	kept := 0
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("trace-%d", i)
		k1, _ := s.Keep(false, nil, id)
		k2, _ := s.Keep(false, nil, id)
		if k1 != k2 {
			t.Fatalf("verdict for %s not deterministic", id)
		}
		if k1 {
			kept++
		}
	}
	if kept < 2700 || kept > 3300 {
		t.Fatalf("rate 0.3 kept %d/10000", kept)
	}
}

// --- Pipeline -------------------------------------------------------------

func TestPipelineWritesToStore(t *testing.T) {
	st := store.New()
	p := syncPipeline(t, st, Config{Workers: 2})
	want := 0
	for i := 0; i < 20; i++ {
		spans := healthyTrace(fmt.Sprintf("t%d", i))
		want += len(spans)
		acc, rej, drop := p.Submit(spans)
		if acc != len(spans) || rej != 0 || drop != 0 {
			t.Fatalf("Submit = %d/%d/%d", acc, rej, drop)
		}
	}
	p.Flush()
	if st.SpanCount() != want || st.TraceCount() != 20 {
		t.Fatalf("store has %d spans / %d traces, want %d/20", st.SpanCount(), st.TraceCount(), want)
	}
	stats := p.Stats()
	if stats.SpansWritten != int64(want) || stats.TracesKept != 20 || stats.OpenTraces != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPipelineRejectsInvalidSpans(t *testing.T) {
	st := store.New()
	p := syncPipeline(t, st, Config{Workers: 1})
	bad := []*trace.Span{
		nil,
		span("", "a", "", 0, 1, false),  // no trace ID
		span("t", "", "", 0, 1, false),  // no span ID
		span("t", "a", "", 5, 1, false), // end before start
		{TraceID: "t", SpanID: "a", Kind: "bogus", End: 1},
		span("t-ok", "a", "", 0, 1, false), // the one valid span
	}
	acc, rej, drop := p.Submit(bad)
	if acc != 1 || rej != 5 || drop != 0 {
		t.Fatalf("Submit = %d/%d/%d, want 1/5/0", acc, rej, drop)
	}
	p.Flush()
	if st.SpanCount() != 1 {
		t.Fatalf("store has %d spans", st.SpanCount())
	}
	if p.Stats().SpansRejected != 5 {
		t.Fatalf("SpansRejected = %d", p.Stats().SpansRejected)
	}
}

func TestPipelineShedsByRate(t *testing.T) {
	st := store.New()
	p := syncPipeline(t, st, Config{Workers: 2, SampleRate: -1})
	for i := 0; i < 10; i++ {
		p.Submit(healthyTrace(fmt.Sprintf("h%d", i))) // healthy: shed
	}
	errSpans := healthyTrace("bad")
	errSpans[1].Error = true
	p.Submit(errSpans) // error trace: kept even at rate 0
	p.Flush()
	if st.TraceCount() != 1 || st.SpanCount() != len(errSpans) {
		t.Fatalf("store has %d traces / %d spans, want 1/%d",
			st.TraceCount(), st.SpanCount(), len(errSpans))
	}
	stats := p.Stats()
	if stats.TracesShed != 10 || stats.TracesKept != 1 || stats.KeptError != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SpansShed != 20 {
		t.Fatalf("SpansShed = %d", stats.SpansShed)
	}
}

func TestPipelineBackpressureDrops(t *testing.T) {
	st := store.New()
	p := syncPipeline(t, st, Config{Workers: 1})
	release := p.Block()
	// queueSize batches fill the queue; the next must drop, not stall.
	for i := range queueSize {
		if acc, _, drop := p.Submit(healthyTrace(fmt.Sprintf("fill%d", i))); acc != 2 || drop != 0 {
			t.Fatalf("queue fill %d: acc=%d drop=%d", i, acc, drop)
		}
	}
	acc, _, dropped := p.Submit(healthyTrace("over"))
	if acc != 0 || dropped != 2 {
		t.Fatalf("overflow Submit = acc %d, dropped %d, want 0/2", acc, dropped)
	}
	if p.Stats().SpansDropped != 2 {
		t.Fatalf("SpansDropped = %d", p.Stats().SpansDropped)
	}
	release()
	p.Flush()
	// The queued batches survived the pressure; the dropped one is gone.
	if st.TraceCount() != queueSize {
		t.Fatalf("store has %d traces, want %d", st.TraceCount(), queueSize)
	}
}

func TestPipelineTTLExpiry(t *testing.T) {
	st := store.New()
	p := NewPipeline(st, Config{Workers: 1, TraceTTL: 5 * time.Millisecond})
	t.Cleanup(p.Stop)
	p.Submit(healthyTrace("t1"))
	// The window must close on its own via the TTL ticker — no Flush.
	deadline := time.Now().Add(2 * time.Second)
	for st.TraceCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("TTL window never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if p.Stats().OpenTraces != 0 {
		t.Fatalf("OpenTraces = %d after TTL flush", p.Stats().OpenTraces)
	}
}

func TestPipelineStopDrainsAndDropsLate(t *testing.T) {
	st := store.New()
	p := NewPipeline(st, Config{Workers: 2, TraceTTL: time.Hour})
	p.Submit(healthyTrace("t1"))
	p.Stop()
	p.Stop() // idempotent
	if st.TraceCount() != 1 {
		t.Fatalf("Stop did not drain: %d traces", st.TraceCount())
	}
	// Submissions after Stop are dropped and counted, never enqueued.
	acc, _, dropped := p.Submit(healthyTrace("late"))
	if acc != 0 || dropped != 2 {
		t.Fatalf("post-Stop Submit = acc %d, dropped %d", acc, dropped)
	}
	p.Flush() // no-op after Stop, must not hang
}

// TestPipelineCountersAgreeAfterStop: Stats counts rejects and drops before
// Stop and after it, and the ingest.spans_dropped counter agrees with it.
func TestPipelineCountersAgreeAfterStop(t *testing.T) {
	obs.Disable()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	p := NewPipeline(store.New(), Config{Workers: 2, TraceTTL: time.Hour})
	mixed := func(id string) []*trace.Span {
		return append(healthyTrace(id), span(id, "bad", "", 5, 1, false))
	}
	p.Submit(mixed("before"))
	p.Stop()
	if acc, rej, drop := p.Submit(mixed("after")); acc != 0 || rej != 1 || drop != 2 {
		t.Fatalf("post-Stop Submit = %d/%d/%d, want 0/1/2", acc, rej, drop)
	}
	st := p.Stats()
	if st.SpansRejected != 2 {
		t.Errorf("SpansRejected = %d, want 2", st.SpansRejected)
	}
	if n := reg.Counter("ingest.spans_dropped").Value(); st.SpansDropped != 2 || n != st.SpansDropped {
		t.Errorf("SpansDropped = %d, ingest.spans_dropped = %d, want 2 and 2", st.SpansDropped, n)
	}
}

func TestPipelineSplitTraceAcrossBatches(t *testing.T) {
	// Spans of one trace arriving in separate Submits concentrate into a
	// single window and land as one trace.
	st := store.New()
	p := NewPipeline(st, Config{Workers: 4, TraceTTL: time.Hour})
	t.Cleanup(p.Stop)
	spans := healthyTrace("t1")
	p.Submit(spans[:1])
	p.Submit(spans[1:])
	p.Flush()
	if st.TraceCount() != 1 || st.SpanCount() != 2 {
		t.Fatalf("split trace stored as %d traces / %d spans", st.TraceCount(), st.SpanCount())
	}
}

// TestPipelineMaxOpenTracesEvicts: the trace that would open window
// maxOpenTraces+1 first force-flushes every open window of its shard, and no
// trace is lost.
func TestPipelineMaxOpenTracesEvicts(t *testing.T) {
	obs.Disable()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	st := store.New()
	p := NewPipeline(st, Config{Workers: 1, TraceTTL: time.Hour})
	t.Cleanup(p.Stop)
	const n, batch = maxOpenTraces + 32, 4096
	for lo := 0; lo < n; lo += batch {
		spans := make([]*trace.Span, 0, batch)
		for i := lo; i < min(lo+batch, n); i++ {
			id := fmt.Sprintf("t%d", i)
			spans = append(spans, span(id, id+"-root", "", 0, 1000, false))
		}
		if acc, _, drop := p.Submit(spans); acc != len(spans) || drop != 0 {
			t.Fatalf("Submit = acc %d, dropped %d, want %d/0", acc, drop, len(spans))
		}
	}
	p.Flush()
	if got := reg.Counter("ingest.open_evicted").Value(); got != maxOpenTraces {
		t.Fatalf("ingest.open_evicted = %d, want %d", got, maxOpenTraces)
	}
	if got := p.Stats().OpenTraces; got != 0 {
		t.Fatalf("OpenTraces = %d", got)
	}
	if st.TraceCount() != n {
		t.Fatalf("eviction lost traces: %d/%d", st.TraceCount(), n)
	}
}

func TestRefreshBaselineFromStore(t *testing.T) {
	st := store.New()
	st.AddSpans([]*trace.Span{span("seed", "a", "", 0, 1000, false)})
	p := syncPipeline(t, st, Config{Workers: 1, SampleRate: -1, TailPercentile: 99})
	p.RefreshBaseline()
	if p.Sampler().baselineSize() == 0 {
		t.Fatal("baseline empty after refresh")
	}
	// A root far above the seeded op's P99 is kept even though rate sheds.
	p.Submit([]*trace.Span{span("slow", "r", "", 0, 1_000_000, false)})
	p.Flush()
	if p.Stats().KeptLatency != 1 {
		t.Fatalf("KeptLatency = %d", p.Stats().KeptLatency)
	}
}

// TestIngestSamplerSteadyStateAllocs gates the per-trace decision path
// (`make alloc`): at 1M spans/sec the sampler verdict runs for every closed
// window, and a single allocation per decision would put the GC on the
// ingest critical path.
func TestIngestSamplerSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	s := NewSampler(0.1, 99)
	s.SetBaselineFromSummaries([]store.OpSummary{
		{OpKey: "svc\x1fop\x1fserver", Median: 100, P95: 500, P99: 1000},
	})
	root := span("t1", "a", "", 0, 500, false)
	spans := healthyTrace("t1")
	if n := testing.AllocsPerRun(200, func() {
		_, _ = s.Keep(false, root, "t1")
	}); n != 0 {
		t.Fatalf("Keep allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = rootSpan(spans)
	}); n != 0 {
		t.Fatalf("rootSpan allocates %.1f per call, want 0", n)
	}
}
