package trace_test

import (
	"runtime"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// BenchmarkAssembleAll assembles 64 simulated traces from one flat span
// list, as a /score request body arrives, and reports the cost per trace:
//
//	go test ./internal/trace -run '^$' -bench BenchmarkAssembleAll
func BenchmarkAssembleAll(b *testing.B) {
	const traces = 64
	for _, app := range []struct {
		name string
		n    int
	}{{"Synthetic-64", 64}, {"Synthetic-256", 256}} {
		b.Run(app.name, func(b *testing.B) {
			results, err := sim.New(synth.Synthetic(app.n, 1), sim.DefaultOptions(1)).Run(0, traces)
			if err != nil {
				b.Fatal(err)
			}
			var spans []*trace.Span
			for _, tr := range sim.Traces(results) {
				spans = append(spans, tr.Spans...)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, _ := trace.AssembleAll(spans); len(got) != traces {
					b.Fatalf("assembled %d traces, want %d", len(got), traces)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N * traces)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/trace")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per/1024, "KB/trace")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per/1000, "µs/trace")
		})
	}
}
