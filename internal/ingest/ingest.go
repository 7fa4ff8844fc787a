// Package ingest is the staged streaming ingest pipeline of the paper's §4
// collector tier, rebuilt from a whole-batch HTTP handler into the
// receiver → concentrator → sampler → writer architecture of a production
// trace agent:
//
//	decode → normalize ─┐  (receiver goroutine, per protocol)
//	                    ▼
//	        bounded per-shard queues      — full queue: drop + count
//	                    ▼
//	        concentrate-by-trace (TTL)    — one goroutine owns one shard
//	                    ▼
//	        tail-sample (keep/shed)       — errors & latency outliers kept
//	                    ▼
//	        write (batched store.AddSpans)
//
// Decode and normalize run on the caller's goroutine (the HTTP handler
// needs synchronous accept/reject counts); Submit then hashes spans onto
// bounded per-worker queues. Each worker goroutine owns one concentrator
// shard outright — open traces accumulate spans in a plain map with no
// locks — and flushes a trace to the tail sampler once its TTL window
// closes. Kept traces are written to the store in batches; shed traces
// are counted and dropped before they ever touch the store.
//
// Every stage is self-observing through internal/obs: per-stage
// drop/occupancy counters, queue-wait and flush latency histograms, and a
// per-sweep written-spans series, all visible in `sleuthctl watch`.
package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// queueSize bounds each worker's batch queue. A full queue drops the batch
// and counts it — backpressure sheds at the door instead of stalling
// receivers.
const queueSize = 256

// baselineRefresh is the interval at which a pipeline with a store
// recomputes the sampler's latency baseline from store.OpSummaries.
const baselineRefresh = 30 * time.Second

// maxOpenTraces caps concentrator memory across all shards; hitting the cap
// force-flushes the receiving shard.
const maxOpenTraces = 1 << 17

// Config sizes the pipeline. Zero values select the defaults.
type Config struct {
	// Workers is the number of concentrator shards, each owned by one
	// goroutine (default GOMAXPROCS).
	Workers int
	// SampleRate is the keep probability for healthy traces in (0,1]
	// (default 1 = lossless). Zero means the default; a negative rate
	// sheds every healthy trace.
	SampleRate float64
	// TailPercentile selects the OpSummaries percentile above which a root
	// duration marks a latency outlier (default 99). It rounds up to the
	// next aggregate the store keeps: median, P95 or P99.
	TailPercentile float64
	// TraceTTL is how long a trace stays open in the concentrator after
	// its last span arrived (default 500ms). Zero and below flushes after
	// every batch (useful in tests).
	TraceTTL time.Duration
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Workers:        runtime.GOMAXPROCS(0),
		SampleRate:     1,
		TailPercentile: 99,
		TraceTTL:       500 * time.Millisecond,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SampleRate == 0 {
		c.SampleRate = 1
	}
	if c.TailPercentile <= 0 {
		c.TailPercentile = 99
	}
	return c
}

// batchMsg is one unit of queue traffic: a span batch bound for one shard,
// or a flush barrier (spans nil, flush non-nil). A barrier carrying hold
// parks the worker after its ack until hold closes — the Block test hook.
type batchMsg struct {
	spans []*trace.Span
	enq   time.Time
	flush chan<- struct{}
	hold  <-chan struct{}
}

// openTrace is a trace accumulating spans inside a concentrator shard.
type openTrace struct {
	spans    []*trace.Span
	lastSeen time.Time
	hasError bool
}

// Stats is a point-in-time snapshot of the pipeline counters, served on
// the collector's /stats endpoint. Counts are cumulative since start.
type Stats struct {
	SpansIn       int64 `json:"spansIn"`
	SpansRejected int64 `json:"spansRejected"`
	SpansDropped  int64 `json:"spansDropped"` // bounded-queue drops
	SpansWritten  int64 `json:"spansWritten"`
	SpansShed     int64 `json:"spansShed"` // tail-sampled out
	TracesKept    int64 `json:"tracesKept"`
	TracesShed    int64 `json:"tracesShed"`
	KeptError     int64 `json:"keptError"`   // kept: error span present
	KeptLatency   int64 `json:"keptLatency"` // kept: root latency outlier
	OpenTraces    int64 `json:"openTraces"`
	QueueDepth    int   `json:"queueDepth"`
}

// Pipeline is the staged ingest path feeding a store. Construct with
// NewPipeline, feed with Submit, and Stop before discarding.
type Pipeline struct {
	store   *store.Store
	cfg     Config
	sampler *Sampler

	mu     sync.RWMutex // closed ↔ queue sends
	closed bool
	shards []*ingestShard
	wg     sync.WaitGroup
	stopCh chan struct{}

	open atomic.Int64 // concentrator occupancy across shards

	spansIn       atomic.Int64
	spansRejected atomic.Int64
	spansDropped  atomic.Int64
	spansWritten  atomic.Int64
	spansShed     atomic.Int64
	tracesKept    atomic.Int64
	tracesShed    atomic.Int64
	keptError     atomic.Int64
	keptLatency   atomic.Int64
}

// ingestShard is one concentrator partition, owned by one worker
// goroutine: its open-trace map is touched by no one else, so the per-span
// hot path is lock-free.
type ingestShard struct {
	p        *Pipeline
	queue    chan batchMsg
	open     map[string]*openTrace
	writeBuf []*trace.Span
	freelist []*openTrace
}

// NewPipeline builds and starts a pipeline writing kept traces into st.
func NewPipeline(st *store.Store, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		store:   st,
		cfg:     cfg,
		sampler: NewSampler(cfg.SampleRate, cfg.TailPercentile),
		stopCh:  make(chan struct{}),
	}
	p.shards = make([]*ingestShard, cfg.Workers)
	for i := range p.shards {
		p.shards[i] = &ingestShard{
			p:     p,
			queue: make(chan batchMsg, queueSize),
			open:  make(map[string]*openTrace),
		}
		p.wg.Add(1)
		go p.shards[i].run()
	}
	if st != nil {
		p.wg.Add(1)
		go p.refreshLoop()
	}
	return p
}

// Sampler exposes the pipeline's tail sampler (tests pin baselines on it).
func (p *Pipeline) Sampler() *Sampler { return p.sampler }

// Submit normalizes a decoded span batch and enqueues it shard-by-shard:
// invalid spans (trace.Span.Valid) are rejected and counted rather than
// poisoning trace assembly downstream, spans bound for a full queue are
// dropped and counted, the rest are accepted into the concentrator stage.
// Safe for concurrent use; never blocks.
func (p *Pipeline) Submit(spans []*trace.Span) (accepted, rejected, dropped int) {
	if len(spans) == 0 {
		return 0, 0, 0
	}
	p.spansIn.Add(int64(len(spans)))
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := len(p.shards)
	if p.closed {
		for _, s := range spans {
			if s.Valid() {
				dropped++
			} else {
				rejected++
			}
		}
		p.noteReject(rejected)
		p.noteDrop(dropped)
		return 0, rejected, dropped
	}
	buckets := make([][]*trace.Span, n)
	for _, s := range spans {
		if !s.Valid() {
			rejected++
			continue
		}
		i := shardIndex(s.TraceID, n)
		buckets[i] = append(buckets[i], s)
	}
	p.noteReject(rejected)
	enq := time.Now()
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		select {
		case p.shards[i].queue <- batchMsg{spans: b, enq: enq}:
			accepted += len(b)
		default:
			dropped += len(b)
		}
	}
	p.noteDrop(dropped)
	return accepted, rejected, dropped
}

// shardIndex hashes a trace ID onto a pipeline shard (FNV-1a, unsalted —
// the sampler's hash is salted so the two decisions decorrelate).
func shardIndex(id string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// noteReject and noteDrop count rejected and dropped spans in Stats and in
// the ingest.* counters together, so the two never disagree.
func (p *Pipeline) noteReject(n int) {
	if n <= 0 {
		return
	}
	p.spansRejected.Add(int64(n))
	obs.C("ingest.spans_rejected").Add(int64(n))
}

func (p *Pipeline) noteDrop(n int) {
	if n <= 0 {
		return
	}
	p.spansDropped.Add(int64(n))
	obs.C("ingest.spans_dropped").Add(int64(n))
}

// Flush forces every open trace through the sampler and writer and blocks
// until all previously submitted batches have been fully processed —
// the deterministic drain used by tests, benchmarks and shutdown.
func (p *Pipeline) Flush() {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return
	}
	acks := make([]chan struct{}, len(p.shards))
	for i, sh := range p.shards {
		acks[i] = make(chan struct{}, 1)
		sh.queue <- batchMsg{flush: acks[i]}
	}
	p.mu.RUnlock()
	for _, ack := range acks {
		<-ack
	}
}

// Block parks every worker goroutine and returns the function that releases
// them — a test hook for exercising backpressure: while blocked, queued
// batches are not consumed, so a full queue stays full. The returned release
// must be called or the pipeline stalls forever.
func (p *Pipeline) Block() (release func()) {
	hold := make(chan struct{})
	p.mu.RLock()
	acks := make([]chan struct{}, len(p.shards))
	for i, sh := range p.shards {
		acks[i] = make(chan struct{}, 1)
		sh.queue <- batchMsg{flush: acks[i], hold: hold}
	}
	p.mu.RUnlock()
	for _, ack := range acks {
		<-ack // the worker has parked; its queue will not drain
	}
	return func() { close(hold) }
}

// Stop drains and terminates the pipeline: every queued batch is absorbed,
// every open trace is flushed through the sampler and writer, and all
// worker goroutines exit. Idempotent.
func (p *Pipeline) Stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stopCh)
	for _, sh := range p.shards {
		close(sh.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// RefreshBaseline recomputes the sampler's latency baseline from the
// store's live per-operation summaries.
func (p *Pipeline) RefreshBaseline() {
	if p.store == nil {
		return
	}
	t := obs.H("ingest.baseline_refresh_us").Start()
	p.sampler.SetBaselineFromSummaries(p.store.OpSummaries())
	t.Stop()
	obs.G("ingest.baseline_ops").Set(float64(p.sampler.BaselineSize()))
}

func (p *Pipeline) refreshLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(baselineRefresh)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
			p.RefreshBaseline()
		}
	}
}

// QueueDepth returns the number of batches waiting across all queues.
func (p *Pipeline) QueueDepth() int {
	depth := 0
	for _, sh := range p.shards {
		depth += len(sh.queue)
	}
	return depth
}

// QueueSaturation reports queue occupancy as a fraction of total capacity
// in [0,1] — the readiness signal: a collector whose queues sit near 1.0
// is accepting traffic it will mostly drop and should fail /readyz.
func (p *Pipeline) QueueSaturation() float64 {
	if p == nil || len(p.shards) == 0 {
		return 0
	}
	return float64(p.QueueDepth()) / float64(len(p.shards)*queueSize)
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		SpansIn:       p.spansIn.Load(),
		SpansRejected: p.spansRejected.Load(),
		SpansDropped:  p.spansDropped.Load(),
		SpansWritten:  p.spansWritten.Load(),
		SpansShed:     p.spansShed.Load(),
		TracesKept:    p.tracesKept.Load(),
		TracesShed:    p.tracesShed.Load(),
		KeptError:     p.keptError.Load(),
		KeptLatency:   p.keptLatency.Load(),
		OpenTraces:    p.open.Load(),
		QueueDepth:    p.QueueDepth(),
	}
}

// --- Worker (concentrate → sample → write) --------------------------------

// run is the shard's worker loop: absorb batches, close TTL windows on a
// ticker, honor flush barriers, and drain fully on shutdown.
func (sh *ingestShard) run() {
	defer sh.p.wg.Done()
	ttl := sh.p.cfg.TraceTTL
	tick := ttl / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	var tickC <-chan time.Time
	if ttl > 0 {
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		tickC = ticker.C
	}
	for {
		select {
		case m, ok := <-sh.queue:
			if !ok {
				sh.flush(time.Now(), true)
				return
			}
			now := time.Now()
			if len(m.spans) > 0 {
				obs.H("ingest.queue_wait_us").ObserveDuration(now.Sub(m.enq))
				sh.absorb(m.spans, now)
			}
			if m.flush != nil {
				sh.flush(now, true)
				m.flush <- struct{}{}
				if m.hold != nil {
					<-m.hold
				}
			} else if ttl <= 0 {
				sh.flush(now, true)
			}
		case now := <-tickC:
			sh.flush(now, false)
		}
	}
}

// absorb is the concentrate stage: spans join their trace's open window.
// The shard map is goroutine-local, so this is the lock-free hot path.
func (sh *ingestShard) absorb(spans []*trace.Span, now time.Time) {
	p := sh.p
	for _, s := range spans {
		ot := sh.open[s.TraceID]
		if ot == nil {
			if p.open.Load() >= maxOpenTraces {
				// Safety valve: close every window on this shard rather
				// than growing without bound under a trace-ID flood.
				obs.C("ingest.open_evicted").Add(int64(len(sh.open)))
				sh.flush(now, true)
			}
			if n := len(sh.freelist); n > 0 {
				ot = sh.freelist[n-1]
				sh.freelist = sh.freelist[:n-1]
			} else {
				ot = &openTrace{}
			}
			sh.open[s.TraceID] = ot
			p.open.Add(1)
		}
		ot.spans = append(ot.spans, s)
		ot.lastSeen = now
		ot.hasError = ot.hasError || s.Error
	}
}

// flush closes trace windows — every window when all is set, otherwise the
// ones whose TTL expired — running each through the tail sampler and
// writing the kept spans to the store in one batch.
func (sh *ingestShard) flush(now time.Time, all bool) {
	if len(sh.open) == 0 {
		return
	}
	p := sh.p
	t := obs.H("ingest.flush_us").Start()
	cutoff := now.Add(-p.cfg.TraceTTL)
	var kept, shed, keptErr, keptLat, shedSpans int64
	for id, ot := range sh.open {
		if !all && ot.lastSeen.After(cutoff) {
			continue
		}
		keep, reason := p.sampler.Keep(ot.hasError, rootSpan(ot.spans), id)
		if keep {
			sh.writeBuf = append(sh.writeBuf, ot.spans...)
			kept++
			switch reason {
			case keptError:
				keptErr++
			case keptLatency:
				keptLat++
			}
		} else {
			shed++
			shedSpans += int64(len(ot.spans))
		}
		delete(sh.open, id)
		ot.spans = ot.spans[:0]
		ot.hasError = false
		sh.freelist = append(sh.freelist, ot)
		p.open.Add(-1)
	}
	if kept+shed == 0 {
		t.Stop()
		return
	}
	written := int64(len(sh.writeBuf))
	if written > 0 && p.store != nil {
		p.store.AddSpans(sh.writeBuf)
	}
	sh.writeBuf = sh.writeBuf[:0]
	p.tracesKept.Add(kept)
	p.tracesShed.Add(shed)
	p.keptError.Add(keptErr)
	p.keptLatency.Add(keptLat)
	p.spansWritten.Add(written)
	p.spansShed.Add(shedSpans)
	t.Stop()
	obs.C("ingest.traces_kept").Add(kept)
	obs.C("ingest.traces_shed").Add(shed)
	obs.C("ingest.traces_kept_error").Add(keptErr)
	obs.C("ingest.traces_kept_latency").Add(keptLat)
	obs.C("ingest.spans_written").Add(written)
	obs.C("ingest.spans_shed").Add(shedSpans)
	obs.S("ingest.written.spans").Append(float64(written))
	obs.G("ingest.open_traces").Set(float64(p.open.Load()))
	obs.G("ingest.queue_depth").Set(float64(p.QueueDepth()))
}
