package ingest

import (
	"fmt"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// benchCorpus builds batches of pre-decoded spans: nTraces traces of
// spansPerTrace spans each, grouped tracesPerBatch traces to a Submit call
// (the receiver hands the pipeline whole decoded payloads, not single
// spans). Every 100th trace carries an error span so the sampler's
// always-keep rule stays on the measured path.
func benchCorpus(nTraces, spansPerTrace, tracesPerBatch int) [][]*trace.Span {
	var batches [][]*trace.Span
	batch := make([]*trace.Span, 0, tracesPerBatch*spansPerTrace)
	for t := 0; t < nTraces; t++ {
		id := fmt.Sprintf("trace-%08d", t)
		root := span(id, id+"-s0", "", 0, int64(1000+t%500), t%100 == 0)
		batch = append(batch, root)
		for s := 1; s < spansPerTrace; s++ {
			batch = append(batch, span(id, fmt.Sprintf("%s-s%d", id, s), root.SpanID,
				int64(10*s), int64(10*s+100), false))
		}
		if (t+1)%tracesPerBatch == 0 {
			batches = append(batches, batch)
			batch = make([]*trace.Span, 0, tracesPerBatch*spansPerTrace)
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches
}

// BenchmarkIngest pushes a pre-decoded corpus through the full pipeline —
// submit → concentrate → tail-sample (rate 0.1) → write — and reports
// end-to-end spans/sec. One op = the whole corpus, drained.
func BenchmarkIngest(b *testing.B) {
	const (
		nTraces        = 20000
		spansPerTrace  = 8
		tracesPerBatch = 256
	)
	batches := benchCorpus(nTraces, spansPerTrace, tracesPerBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := store.New()
		// The whole corpus fits the queues: the benchmark measures
		// pipeline throughput, not drop throughput.
		p := NewPipeline(st, Config{SampleRate: 0.1, TraceTTL: -1})
		for _, batch := range batches {
			if _, _, d := p.Submit(batch); d > 0 {
				b.Fatalf("dropped %d spans", d)
			}
		}
		p.Stop()
		if got := p.Stats().SpansWritten + p.Stats().SpansShed; got < int64(nTraces*spansPerTrace) {
			b.Fatalf("pipeline lost spans: processed %d of %d", got, nTraces*spansPerTrace)
		}
	}
	b.StopTimer()
	spans := float64(nTraces * spansPerTrace)
	b.ReportMetric(spans*float64(b.N)/b.Elapsed().Seconds(), "spans/sec")
}

// BenchmarkSamplerKeep measures the lone keep/shed decision — the per-trace
// cost added to every window close.
func BenchmarkSamplerKeep(b *testing.B) {
	s := NewSampler(0.1, 99)
	s.SetBaselineFromSummaries([]store.OpSummary{
		{OpKey: "svc\x1fop\x1fserver", Median: 100, P95: 500, P99: 1000},
	})
	root := span("t1", "a", "", 0, 500, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = s.Keep(false, root, "t1")
	}
}
