// Package obs is Sleuth's self-observability layer: a dependency-free
// metrics registry (sharded counters, gauges, fixed-bucket latency
// histograms with quantile estimation) with its time series, a per-request
// tracer whose span trees, in the canonical trace.Span model, land in a
// fixed-capacity trace ring, and HTTP surfaces (Prometheus /metrics, the
// registry's one serialisation; /debug/series, /debug/traces and
// /debug/alerts JSON; net/http/pprof).
//
// Instrumentation is off by default and nil-safe throughout: every metric
// handle may be nil and every method on a nil handle is a no-op, so a
// disabled process pays one atomic load per handle fetch and a nil check
// per operation — nothing on the hot paths allocates or locks. Enable the
// process-wide registry with Enable (the binaries' -obs flag); components
// fetch handles through the package-level C/G/H helpers and work unchanged
// whether observability is on or off.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// --- Sharded counter ------------------------------------------------------

// numShards stripes counter cells to keep concurrent writers off each
// other's cache lines. Must be a power of two.
const numShards = 32

// shard is one counter cell padded to a cache line so neighbouring shards
// never false-share.
type shard struct {
	n int64
	_ [56]byte
}

// Counter is a monotonically increasing (or delta-accumulating) metric.
// Adds stripe across shards; Value folds them. A nil Counter is a no-op.
type Counter struct {
	name   string
	shards [numShards]shard
}

// shardIndex derives a cheap quasi-goroutine-local stripe index from the
// address of a stack variable: goroutine stacks are disjoint, so concurrent
// writers land on different shards with high probability, while repeated
// calls from one goroutine stay shard-stable (cache friendly). The pointer
// is only hashed, never dereferenced or retained.
func shardIndex() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) & (numShards - 1))
}

// Add accumulates delta into the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.shards[shardIndex()].n, delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value folds the shards into the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += atomic.LoadInt64(&c.shards[i].n)
	}
	return total
}

// Name returns the registered metric name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// --- Gauge ----------------------------------------------------------------

// Gauge is a last-value float metric (loss, gradient norm, queue depth).
// A nil Gauge is a no-op.
type Gauge struct {
	name string
	bits uint64 // math.Float64bits of the current value
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Name returns the registered metric name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// --- Fixed-bucket histogram -----------------------------------------------

// Histogram bucket geometry: bucketsPerDecade log-spaced buckets per decade
// spanning [10^minExp, 10^maxExp), plus an underflow and an overflow
// bucket. With values in microseconds the range covers 0.1 µs to 10⁷ µs
// (ten seconds) at ~1.47× resolution — fine enough that log-linear
// interpolation recovers quantiles within a few percent.
const (
	bucketsPerDecade = 6
	minExp           = -1
	maxExp           = 7
	numBuckets       = (maxExp-minExp)*bucketsPerDecade + 2 // + under/overflow
)

// bucketBounds holds the inclusive upper bound of every bucket except the
// overflow bucket (which is unbounded). Computed once at package init.
var bucketBounds = func() [numBuckets - 1]float64 {
	var b [numBuckets - 1]float64
	for i := range b {
		b[i] = math.Pow(10, float64(minExp)+float64(i)/bucketsPerDecade)
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram with streaming count, sum,
// min and max, and interpolated quantile estimation. Values are expected to
// be non-negative (microseconds by convention; names end in _us). A nil
// Histogram is a no-op.
type Histogram struct {
	name    string
	count   int64
	sumBits uint64 // CAS-accumulated float64 sum
	minBits uint64 // math.Float64bits, CAS-min
	maxBits uint64 // math.Float64bits, CAS-max
	buckets [numBuckets]int64
	// exemplars holds, per bucket, the most recent observation that carried
	// a trace ID — the join key from a histogram spike back to the span tree
	// that caused it. Retention is last-write-wins per bucket: the slow
	// buckets are by construction the outlier classes, so keeping the latest
	// exemplar in each occupied bucket preserves one representative trace
	// per latency regime with O(numBuckets) memory.
	exemplars [numBuckets]atomic.Pointer[exemplar]
}

// exemplar is the stored form of one exemplar-carrying observation.
type exemplar struct {
	traceID string
	value   float64
	ts      int64 // unix microseconds
}

// Exemplar is the exported view of one histogram exemplar: the trace ID of
// a recent observation that landed in the bucket bounded by LE.
type Exemplar struct {
	// LE is the inclusive upper bound of the bucket; -1 marks the unbounded
	// overflow bucket.
	LE      float64
	TraceID string
	Value   float64
	// TS is the observation time in microseconds since the epoch.
	TS int64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	atomic.StoreUint64(&h.minBits, math.Float64bits(math.Inf(1)))
	atomic.StoreUint64(&h.maxBits, math.Float64bits(math.Inf(-1)))
	return h
}

// bucketOf locates the bucket for v by binary search over the bounds.
func bucketOf(v float64) int {
	return sort.SearchFloat64s(bucketBounds[:], v)
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	atomic.AddInt64(&h.buckets[bucketOf(v)], 1)
	atomic.AddInt64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			break
		}
	}
	for {
		old := atomic.LoadUint64(&h.minBits)
		if math.Float64frombits(old) <= v || atomic.CompareAndSwapUint64(&h.minBits, old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := atomic.LoadUint64(&h.maxBits)
		if math.Float64frombits(old) >= v || atomic.CompareAndSwapUint64(&h.maxBits, old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar records one measurement and, when traceID is non-empty,
// stores it as the bucket's exemplar — the join key from this latency class
// back to the self-trace that produced it. Cost over Observe is one
// timestamp read and one small allocation per call (the exemplar record);
// pass traceID == "" to skip exemplar storage entirely.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.exemplars[bucketOf(v)].Store(&exemplar{
		traceID: traceID,
		value:   v,
		ts:      time.Now().UnixMicro(),
	})
}

// Exemplars returns the current exemplar of every bucket holding one, in
// bucket order. The overflow bucket reports LE = -1.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	var out []Exemplar
	for i := 0; i < numBuckets; i++ {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		le := -1.0
		if i < numBuckets-1 {
			le = bucketBounds[i]
		}
		out = append(out, Exemplar{LE: le, TraceID: e.traceID, Value: e.value, TS: e.ts})
	}
	return out
}

// ObserveDuration records a time.Duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(float64(d) / float64(time.Microsecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// where the cumulative count crosses q·total and interpolating linearly
// within it. The underflow bucket reports its upper bound, the overflow
// bucket the maximum observed value.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := atomic.LoadInt64(&h.count)
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := 0; i < numBuckets; i++ {
		n := atomic.LoadInt64(&h.buckets[i])
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketBounds[i-1]
			}
			hi := math.Float64frombits(atomic.LoadUint64(&h.maxBits))
			if i < numBuckets-1 && bucketBounds[i] < hi {
				hi = bucketBounds[i]
			}
			// Clip the interpolation window to the observed extremes so
			// single-bucket distributions report sane values.
			if mn := math.Float64frombits(atomic.LoadUint64(&h.minBits)); mn > lo && mn <= hi {
				lo = mn
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return math.Float64frombits(atomic.LoadUint64(&h.maxBits))
}

// Name returns the registered metric name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Timer times one operation into a histogram. The zero Timer (from a nil
// histogram) is free: Stop performs a single nil check and no clock reads.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins timing an operation. On a nil histogram no clock is read.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time in microseconds.
func (t Timer) Stop() {
	if t.h == nil {
		return
	}
	t.h.ObserveDuration(time.Since(t.start))
}

// --- Registry -------------------------------------------------------------

// Registry is a concurrency-safe named-metric registry. All lookup methods
// are get-or-create and nil-safe: calls on a nil *Registry return nil
// handles, whose methods are no-ops — the disabled-observability fast path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// series live in their own namespace with an independent lock so the
	// sampler can create series while holding no metric locks (see series.go).
	seriesMu sync.RWMutex
	series   map[string]*Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		series:   map[string]*Series{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(name)
		r.hists[name] = h
	}
	return h
}

// LookupHistogram returns the named histogram without creating it, or nil —
// for read paths (series exemplar attachment) that must not mint metrics.
func (r *Registry) LookupHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	return h
}

// metrics is the one registry walk, which WritePrometheus and the sampler
// both read through: every counter, gauge and histogram, each sorted by
// name.
func (r *Registry) metrics() ([]*Counter, []*Gauge, []*Histogram) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedValues(r.counters), sortedValues(r.gauges), sortedValues(r.hists)
}

// sortedValues returns m's values in name order.
func sortedValues[V any](m map[string]V) []V {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]V, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}

// --- Process-wide registry ------------------------------------------------

// global holds the process registry; nil means observability is disabled
// (the default) and every handle fetched through C/G/H is nil.
var global atomic.Pointer[Registry]

// Enable installs (or returns the existing) process-wide registry. Call it
// at process start, before instrumented components fetch their handles.
// The process trace ring is created alongside the fresh registry;
// StartSampler adds history.
func Enable() *Registry {
	for {
		if r := global.Load(); r != nil {
			return r
		}
		r := NewRegistry()
		if global.CompareAndSwap(nil, r) {
			globalRing.CompareAndSwap(nil, NewTraceRing(DefaultTraceRingSize))
			return r
		}
	}
}

// Disable removes the process-wide registry (stopping its sampler, if any);
// handles fetched afterwards are nil no-ops. Handles fetched earlier keep
// recording into the detached registry — intended for tests, not mid-flight
// toggling.
func Disable() {
	StopSampler()
	globalRing.Store(nil)
	global.Store(nil)
}

// Global returns the process-wide registry, or nil when disabled.
func Global() *Registry { return global.Load() }

// C fetches a counter from the process registry (nil when disabled).
func C(name string) *Counter { return global.Load().Counter(name) }

// G fetches a gauge from the process registry (nil when disabled).
func G(name string) *Gauge { return global.Load().Gauge(name) }

// H fetches a histogram from the process registry (nil when disabled).
func H(name string) *Histogram { return global.Load().Histogram(name) }
