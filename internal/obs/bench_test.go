package obs

import (
	"testing"
	"time"
)

// BenchmarkObsOverhead measures the per-operation cost of every metric
// primitive in both states: disabled (nil handles — the price every hot
// path pays when observability is off) and enabled. The disabled numbers
// are the ones that matter for the <5% training-regression budget.
func BenchmarkObsOverhead(b *testing.B) {
	defer Disable()
	for _, enabled := range []bool{false, true} {
		state := "disabled"
		if enabled {
			state = "enabled"
		}
		setup := func() (c *Counter, g *Gauge, h *Histogram) {
			Disable()
			if enabled {
				Enable()
			}
			return C("bench.counter"), G("bench.gauge"), H("bench.hist_us")
		}
		b.Run(state+"/counter-inc", func(b *testing.B) {
			c, _, _ := setup()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Inc()
			}
		})
		b.Run(state+"/counter-inc-parallel", func(b *testing.B) {
			c, _, _ := setup()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.Inc()
				}
			})
		})
		b.Run(state+"/gauge-set", func(b *testing.B) {
			_, g, _ := setup()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Set(float64(i))
			}
		})
		b.Run(state+"/hist-observe", func(b *testing.B) {
			_, _, h := setup()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(float64(i % 1000))
			}
		})
		b.Run(state+"/timer", func(b *testing.B) {
			_, _, h := setup()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Start().Stop()
			}
		})
		b.Run(state+"/handle-fetch", func(b *testing.B) {
			setup()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = C("bench.counter")
			}
		})
		b.Run(state+"/span-start-end", func(b *testing.B) {
			setup()
			var tr *Tracer
			if enabled {
				tr = NewTracer("bench", SpanContext{})
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := tr.Start("op", nil)
				sp.End()
			}
		})
		b.Run(state+"/observe-exemplar", func(b *testing.B) {
			_, _, h := setup()
			tid := NewTraceID()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ObserveExemplar(float64(i%1000), tid)
			}
		})
	}
}

// BenchmarkTracePropagation measures the per-request cost of the W3C
// propagation primitives: parsing an incoming traceparent (the hostile-
// header-hardened path every traced request takes) and rendering one.
func BenchmarkTracePropagation(b *testing.B) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: testSpanID, Sampled: true}
	header := sc.Traceparent()
	b.Run("parse-traceparent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = ParseTraceparent(header)
		}
	})
	b.Run("parse-traceparent-reject", func(b *testing.B) {
		bad := header[:54] + "Z"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = ParseTraceparent(bad)
		}
	})
	b.Run("render-traceparent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sc.Traceparent()
		}
	})
}

// BenchmarkSeriesAppend measures the ring-buffer append hot path — the
// cost every instrumented loop iteration pays when telemetry is enabled.
// Must report 0 allocs/op (enforced by TestSeriesSteadyStateAllocs and
// `make alloc`).
func BenchmarkSeriesAppend(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		s := newSeries("bench.series", DefaultSeriesCap)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Append(float64(i))
		}
	})
	b.Run("append-nil", func(b *testing.B) {
		var s *Series
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Append(float64(i))
		}
	})
	b.Run("sampler-sweep", func(b *testing.B) {
		r := NewRegistry()
		r.runtime = true // the runtime-gauge refresh runs in every sweep
		for i := 0; i < 8; i++ {
			r.Counter("bench.c" + string(rune('a'+i))).Inc()
			r.Gauge("bench.g" + string(rune('a'+i))).Set(1)
		}
		r.Histogram("bench.h_us").Observe(42)
		sp := NewSampler(r, time.Hour)
		sp.sample(1) // build bindings
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp.sample(int64(i) + 2)
		}
	})
}
