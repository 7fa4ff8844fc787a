// Time-series telemetry: fixed-capacity ring-buffer series and the
// registry-level sampler that turns point-in-time metrics into history.
//
// A Series is the durable complement of the counters/gauges/histograms in
// obs.go: timestamped float samples in a preallocated ring, appended from
// instrumentation sites (per-epoch training loss, per-request ingest sizes)
// or by the Sampler goroutine, which snapshots every registered metric on a
// fixed interval. Appends take one short mutex hold and allocate nothing;
// windowed queries (min/max/mean/sum/rate) serve the /debug/series endpoint
// and `sleuthctl watch`. Like every obs primitive, a nil *Series is a
// no-op, so disabled processes pay only a nil check per emission site.

package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSeriesCap is the ring capacity of series created through
// Registry.Series: at the default 10 s sampling interval one ring holds
// close to three hours of history.
const DefaultSeriesCap = 1024

// Sample is one timestamped observation.
type Sample struct {
	// TS is the sample time in Unix nanoseconds.
	TS int64   `json:"ts"`
	V  float64 `json:"v"`
}

// Series is a fixed-capacity ring buffer of timestamped float samples.
// Appends overwrite the oldest sample once the ring is full and never
// allocate. A nil Series is a no-op.
type Series struct {
	name string
	mu   sync.Mutex
	ts   []int64
	v    []float64
	head int // next write slot
	n    int // valid samples (≤ len(ts))
}

func newSeries(name string, capacity int) *Series {
	return &Series{name: name, ts: make([]int64, capacity), v: make([]float64, capacity)}
}

// Name returns the registered series name.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Append records v at the current time.
func (s *Series) Append(v float64) {
	if s == nil {
		return
	}
	s.appendSample(time.Now().UnixNano(), v)
}

// AppendAt records v at an explicit Unix-nanosecond timestamp — the
// deterministic-emission entry point used by the watchdog tests and any
// replayer that carries its own clock. Out-of-order timestamps are stored
// as given; windowed queries filter by timestamp, not ring position.
func (s *Series) AppendAt(ts int64, v float64) { s.appendSample(ts, v) }

// appendSample records v at an explicit timestamp (the sampler stamps a
// whole sweep with one clock read; tests pin timestamps).
func (s *Series) appendSample(ts int64, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ts[s.head] = ts
	s.v[s.head] = v
	s.head++
	if s.head == len(s.ts) {
		s.head = 0
	}
	if s.n < len(s.ts) {
		s.n++
	}
	s.mu.Unlock()
}

// Len returns the number of stored samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Cap returns the ring capacity.
func (s *Series) Cap() int {
	if s == nil {
		return 0
	}
	return len(s.ts)
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	if s == nil {
		return Sample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	i := s.head - 1
	if i < 0 {
		i += len(s.ts)
	}
	return Sample{TS: s.ts[i], V: s.v[i]}, true
}

// windowCut is the Unix-nanosecond cutoff of a window ending now; window
// ≤ 0 covers the whole ring.
func windowCut(window time.Duration) int64 {
	if window <= 0 {
		return 0
	}
	return time.Now().Add(-window).UnixNano()
}

// Samples copies out the samples newer than now-window, oldest first.
// window ≤ 0 returns the whole ring.
func (s *Series) Samples(window time.Duration) []Sample {
	if s == nil {
		return nil
	}
	out := make([]Sample, 0, s.Len())
	s.EachSince(windowCut(window), func(ts int64, v float64) {
		out = append(out, Sample{TS: ts, V: v})
	})
	return out
}

// SeriesStats summarises a window of a series. Rate is the counter-style
// rate (last-first)/(tLast-tFirst) per second — meaningful for cumulative
// series; Sum/window is the throughput reading for per-event series.
type SeriesStats struct {
	Count   int     `json:"count"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Sum     float64 `json:"sum"`
	First   float64 `json:"first"`
	Last    float64 `json:"last"`
	SpanSec float64 `json:"spanSec"`
	Rate    float64 `json:"rate"`
}

// Stats summarises the samples newer than now-window without allocating.
// window ≤ 0 covers the whole ring.
func (s *Series) Stats(window time.Duration) SeriesStats {
	return s.StatsSince(windowCut(window))
}

// StatsSince summarises the samples with timestamps ≥ cut (Unix
// nanoseconds; cut ≤ 0 covers the whole ring) without allocating. The
// explicit cutoff is what makes the watchdog's window evaluation
// deterministic: the engine derives cut from the tick's own clock instead
// of re-reading time.Now per series.
func (s *Series) StatsSince(cut int64) SeriesStats {
	var st SeriesStats
	var firstTS, lastTS int64
	s.EachSince(cut, func(ts int64, v float64) {
		if st.Count == 0 {
			st.Min, st.Max = v, v
			st.First, firstTS = v, ts
		}
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		st.Sum += v
		st.Last, lastTS = v, ts
		st.Count++
	})
	if st.Count > 0 {
		st.Mean = st.Sum / float64(st.Count)
		st.SpanSec = float64(lastTS-firstTS) / float64(time.Second)
		if st.SpanSec > 0 {
			st.Rate = (st.Last - st.First) / st.SpanSec
		}
	}
	return st
}

// EachSince calls fn for every sample with timestamp ≥ cut (Unix
// nanoseconds; cut ≤ 0 covers the whole ring), oldest first, without
// copying the ring. fn runs under the series lock: it must be fast and
// must not call back into this series.
func (s *Series) EachSince(cut int64, fn func(ts int64, v float64)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.head - s.n
	if start < 0 {
		start += len(s.ts)
	}
	for i := 0; i < s.n; i++ {
		j := start + i
		if j >= len(s.ts) {
			j -= len(s.ts)
		}
		if s.ts[j] >= cut {
			fn(s.ts[j], s.v[j])
		}
	}
}

// --- Registry integration -------------------------------------------------

// Series returns the named series with the default capacity, creating it on
// first use. Series live in their own namespace beside counters, gauges and
// histograms (the sampler writes metric history under the metric's name).
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.seriesMu.RLock()
	s := r.series[name]
	r.seriesMu.RUnlock()
	if s != nil {
		return s
	}
	r.seriesMu.Lock()
	defer r.seriesMu.Unlock()
	if s = r.series[name]; s == nil {
		s = newSeries(name, DefaultSeriesCap)
		r.series[name] = s
	}
	return s
}

// SeriesNames returns the registered series names, sorted.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.seriesMu.RLock()
	out := make([]string, 0, len(r.series))
	for name := range r.series {
		out = append(out, name)
	}
	r.seriesMu.RUnlock()
	sort.Strings(out)
	return out
}

// LookupSeries returns the named series without creating it.
func (r *Registry) LookupSeries(name string) *Series {
	if r == nil {
		return nil
	}
	r.seriesMu.RLock()
	defer r.seriesMu.RUnlock()
	return r.series[name]
}

// S fetches a series from the process registry (nil when disabled).
func S(name string) *Series { return global.Load().Series(name) }

// --- Sampler ---------------------------------------------------------------

// samplerBinding routes one metric reading into one series.
type samplerBinding struct {
	kind byte // 'c' counter, 'g' gauge, 'q' histogram quantile, 'n' histogram count
	c    *Counter
	g    *Gauge
	h    *Histogram
	q    float64
	s    *Series
}

// The sampler projects each histogram into three series named by these
// suffixes; HistogramSeriesBase is their inverse.
const (
	suffixP50   = ".p50"
	suffixP99   = ".p99"
	suffixCount = ".count"
)

// HistogramSeriesBase strips the sampler's histogram-projection suffix from
// a series name ("x.p99" → "x") — the hop from a series back to the
// histogram (and its exemplars) behind it. Names without a suffix come back
// unchanged and simply won't resolve to a histogram.
func HistogramSeriesBase(name string) string {
	for _, suffix := range [...]string{suffixP50, suffixP99, suffixCount} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return base
		}
	}
	return name
}

// Sampler periodically snapshots every registered counter, gauge and
// histogram quantile into same-named series: counters and gauges under the
// metric name, histograms under <name>.p50 / <name>.p99 / <name>.count.
// The steady-state sweep (no new metrics since the previous tick) allocates
// nothing; bindings are rebuilt only when the registry shape changes. The
// sweep is the process's one telemetry clock: the watchdog engine ticks at
// the end of each (OnSweep).
type Sampler struct {
	reg      *Registry
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	nc, ng, nh int
	bindings   []samplerBinding

	// onSweep runs after every sweep with the sweep's timestamp: the
	// watchdog engine's Tick (alert.New installs it).
	onSweep atomic.Pointer[func(time.Time)]
}

// NewSampler creates a sampler over reg. Call Start to launch it.
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the sampling interval.
func (sp *Sampler) Interval() time.Duration { return sp.interval }

// Registry returns the registry the sampler sweeps.
func (sp *Sampler) Registry() *Registry { return sp.reg }

// OnSweep installs fn (replacing any earlier one) to run at the end of
// every sweep, with the timestamp every sample of that sweep carries.
func (sp *Sampler) OnSweep(fn func(now time.Time)) { sp.onSweep.Store(&fn) }

// Start launches the sampling goroutine.
func (sp *Sampler) Start() {
	go func() {
		defer close(sp.done)
		t := time.NewTicker(sp.interval)
		defer t.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case now := <-t.C:
				sp.sample(now.UnixNano())
			}
		}
	}()
}

// Stop terminates the sampling goroutine and waits for it to exit. Safe to
// call once; the sampler cannot be restarted.
func (sp *Sampler) Stop() {
	select {
	case <-sp.stop:
	default:
		close(sp.stop)
	}
	<-sp.done
}

// sample performs one sweep: refresh the runtime gauges, rebuild the
// bindings if metrics appeared since the last sweep, append one sample per
// binding, all stamped with the same timestamp, then run the OnSweep hook
// at that timestamp.
func (sp *Sampler) sample(now int64) {
	r := sp.reg
	r.collect()
	r.mu.RLock()
	nc, ng, nh := len(r.counters), len(r.gauges), len(r.hists)
	r.mu.RUnlock()
	if nc != sp.nc || ng != sp.ng || nh != sp.nh {
		sp.rebuild()
		sp.nc, sp.ng, sp.nh = nc, ng, nh
	}
	for i := range sp.bindings {
		b := &sp.bindings[i]
		var v float64
		switch b.kind {
		case 'c':
			v = float64(b.c.Value())
		case 'g':
			v = b.g.Value()
		case 'q':
			v = b.h.Quantile(b.q)
		case 'n':
			v = float64(b.h.Count())
		}
		b.s.appendSample(now, v)
	}
	if fn := sp.onSweep.Load(); fn != nil {
		(*fn)(time.Unix(0, now))
	}
}

// rebuild re-derives the metric→series bindings from the current registry
// contents. This is the only allocating part of the sampler; it runs once
// per registry-shape change, not per tick.
func (sp *Sampler) rebuild() {
	r := sp.reg
	counters, gauges, hists := r.metrics()
	bindings := make([]samplerBinding, 0, len(counters)+len(gauges)+3*len(hists))
	for _, c := range counters {
		bindings = append(bindings, samplerBinding{kind: 'c', c: c, s: r.Series(c.Name())})
	}
	for _, g := range gauges {
		bindings = append(bindings, samplerBinding{kind: 'g', g: g, s: r.Series(g.Name())})
	}
	for _, h := range hists {
		bindings = append(bindings,
			samplerBinding{kind: 'q', h: h, q: 0.50, s: r.Series(h.Name() + suffixP50)},
			samplerBinding{kind: 'q', h: h, q: 0.99, s: r.Series(h.Name() + suffixP99)},
			samplerBinding{kind: 'n', h: h, s: r.Series(h.Name() + suffixCount)},
		)
	}
	sp.bindings = bindings
}

// --- Process-wide sampler --------------------------------------------------

var (
	samplerMu     sync.Mutex
	globalSampler *Sampler
)

// StartSampler starts (or returns) the process-wide sampler over the
// process registry, enabling observability if needed. A second call with a
// different interval keeps the first sampler.
func StartSampler(interval time.Duration) *Sampler {
	reg := Enable()
	samplerMu.Lock()
	defer samplerMu.Unlock()
	if globalSampler != nil {
		return globalSampler
	}
	globalSampler = NewSampler(reg, interval)
	globalSampler.Start()
	return globalSampler
}

// StopSampler stops the process-wide sampler, if running.
func StopSampler() {
	samplerMu.Lock()
	sp := globalSampler
	globalSampler = nil
	samplerMu.Unlock()
	if sp != nil {
		sp.Stop()
	}
}
