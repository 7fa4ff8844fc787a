package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/testenv"
)

func TestSeriesAppendAndWrap(t *testing.T) {
	s := newSeries("x", 4)
	if s.Len() != 0 || s.Cap() != 4 {
		t.Fatalf("fresh series Len/Cap = %d/%d", s.Len(), s.Cap())
	}
	for i := 0; i < 6; i++ {
		s.appendSample(int64(i), float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", s.Len())
	}
	samples := s.Samples(0)
	if len(samples) != 4 {
		t.Fatalf("Samples = %d entries, want 4", len(samples))
	}
	// Oldest first: 2, 3, 4, 5 survive the wraparound.
	for i, want := range []float64{2, 3, 4, 5} {
		if samples[i].V != want || samples[i].TS != int64(want) {
			t.Errorf("samples[%d] = %+v, want v=ts=%g", i, samples[i], want)
		}
	}
	last, ok := s.Last()
	if !ok || last.V != 5 || last.TS != 5 {
		t.Errorf("Last() = %+v/%v, want {5 5}/true", last, ok)
	}
}

func TestSeriesStats(t *testing.T) {
	s := newSeries("x", 16)
	base := time.Now().UnixNano()
	// A cumulative counter rising 100 → 400 over 3 seconds.
	for i := 0; i <= 3; i++ {
		s.appendSample(base+int64(i)*int64(time.Second), 100*float64(i+1))
	}
	st := s.Stats(0)
	if st.Count != 4 || st.Min != 100 || st.Max != 400 || st.Sum != 1000 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Mean != 250 || st.First != 100 || st.Last != 400 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.SpanSec < 2.999 || st.SpanSec > 3.001 {
		t.Fatalf("SpanSec = %g, want 3", st.SpanSec)
	}
	if st.Rate < 99.9 || st.Rate > 100.1 {
		t.Fatalf("Rate = %g, want 100/s", st.Rate)
	}
}

func TestSeriesWindow(t *testing.T) {
	s := newSeries("x", 16)
	now := time.Now()
	s.appendSample(now.Add(-time.Hour).UnixNano(), 1)
	s.appendSample(now.Add(-time.Second).UnixNano(), 2)
	s.appendSample(now.UnixNano(), 3)
	if got := len(s.Samples(time.Minute)); got != 2 {
		t.Errorf("Samples(1m) = %d entries, want 2 (hour-old sample excluded)", got)
	}
	st := s.Stats(time.Minute)
	if st.Count != 2 || st.First != 2 || st.Last != 3 {
		t.Errorf("Stats(1m) = %+v, want count=2 first=2 last=3", st)
	}
	if got := len(s.Samples(0)); got != 3 {
		t.Errorf("Samples(0) = %d entries, want all 3", got)
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Append(1)
	s.appendSample(1, 1)
	if s.Len() != 0 || s.Cap() != 0 || s.Name() != "" {
		t.Error("nil Series not inert")
	}
	if _, ok := s.Last(); ok {
		t.Error("nil Series Last() reported a sample")
	}
	if s.Samples(0) != nil {
		t.Error("nil Series Samples() non-nil")
	}
	if st := s.Stats(0); st.Count != 0 {
		t.Error("nil Series Stats() non-zero")
	}
	var r *Registry
	if r.Series("x") != nil || r.LookupSeries("x") != nil || r.SeriesNames() != nil {
		t.Error("nil Registry returned non-nil series state")
	}
	Disable()
	if S("x") != nil {
		t.Error("disabled global returned non-nil series")
	}
}

func TestSeriesConcurrentAppend(t *testing.T) {
	s := newSeries("x", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Append(float64(i))
			}
		}()
	}
	wg.Wait()
	if s.Len() != 128 {
		t.Fatalf("Len = %d, want full ring 128", s.Len())
	}
}

func TestRegistrySeriesGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Series("a")
	if a == nil || r.Series("a") != a {
		t.Fatal("Series() not get-or-create stable")
	}
	if a.Cap() != DefaultSeriesCap {
		t.Errorf("Series(a).Cap() = %d, want %d", a.Cap(), DefaultSeriesCap)
	}
	r.Series("b")
	if r.LookupSeries("missing") != nil {
		t.Error("LookupSeries created a series")
	}
	names := r.SeriesNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("SeriesNames() = %v", names)
	}
}

func TestSamplerSnapshotsMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(2.5)
	for i := 0; i < 100; i++ {
		r.Histogram("h_us").Observe(100)
	}
	sp := NewSampler(r, time.Hour) // ticks driven by hand
	sp.sample(1000)
	sp.sample(2000)

	for _, c := range []struct {
		name string
		want float64
	}{
		{"c", 5}, {"g", 2.5}, {"h_us.p50", 100}, {"h_us.p99", 100}, {"h_us.count", 100},
	} {
		s := r.LookupSeries(c.name)
		if s == nil {
			t.Fatalf("series %q not created by sampler (have %v)", c.name, r.SeriesNames())
		}
		if s.Len() != 2 {
			t.Errorf("series %q has %d samples, want 2", c.name, s.Len())
		}
		if last, _ := s.Last(); last.V != c.want || last.TS != 2000 {
			t.Errorf("series %q last = %+v, want v=%g ts=2000", c.name, last, c.want)
		}
		// Every projection the sampler names maps back to its histogram;
		// plain metric names pass through.
		wantBase := c.name
		if strings.HasPrefix(c.name, "h_us") {
			wantBase = "h_us"
		}
		if got := HistogramSeriesBase(c.name); got != wantBase {
			t.Errorf("HistogramSeriesBase(%q) = %q, want %q", c.name, got, wantBase)
		}
	}

	// A metric registered after the first sweep is picked up by the next.
	r.Counter("late").Add(1)
	sp.sample(3000)
	if s := r.LookupSeries("late"); s == nil || s.Len() != 1 {
		t.Fatalf("late counter not sampled after registry growth")
	}
}

func TestSamplerStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	sp := NewSampler(r, 2*time.Millisecond)
	sp.Start()
	deadline := time.Now().Add(2 * time.Second)
	for r.LookupSeries("c").Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sp.Stop()
	if r.LookupSeries("c").Len() == 0 {
		t.Fatal("sampler never sampled")
	}
	n := r.LookupSeries("c").Len()
	time.Sleep(10 * time.Millisecond)
	if got := r.LookupSeries("c").Len(); got != n {
		t.Errorf("sampler still running after Stop: %d → %d samples", n, got)
	}
}

func TestGlobalSamplerLifecycle(t *testing.T) {
	Disable()
	t.Cleanup(Disable)
	sp := StartSampler(time.Minute)
	if sp == nil {
		t.Fatal("StartSampler returned nil")
	}
	if again := StartSampler(time.Second); again != sp {
		t.Error("second StartSampler replaced the running sampler")
	}
	if Global() == nil {
		t.Error("StartSampler did not enable observability")
	}
	Disable() // must stop the sampler too
	samplerMu.Lock()
	running := globalSampler != nil
	samplerMu.Unlock()
	if running {
		t.Error("Disable left the global sampler running")
	}
}

// TestSeriesSteadyStateAllocs is the alloc-regression guard of the
// telemetry hot paths: ring appends and the sampler's steady-state sweep
// (including the runtime-gauge collector) must not allocate.
func TestSeriesSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newSeries("x", 256)
	s.Append(1) // warm
	if allocs := testing.AllocsPerRun(1000, func() { s.Append(2) }); allocs != 0 {
		t.Errorf("Series.Append allocates %.1f allocs/op, want 0", allocs)
	}

	r := NewRegistry()
	r.runtime = true // the runtime-gauge refresh runs in every sweep
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1)
	r.Histogram("h_us").Observe(50)
	sp := NewSampler(r, time.Hour)
	sp.sample(1) // first sweep builds the bindings (allocates)
	if allocs := testing.AllocsPerRun(100, func() { sp.sample(2) }); allocs != 0 {
		t.Errorf("steady-state sampler sweep allocates %.1f allocs/op, want 0", allocs)
	}
}
