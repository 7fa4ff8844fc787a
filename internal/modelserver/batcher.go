package modelserver

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// ServeConfig tunes the /score serving path. The zero value selects the
// built-in defaults, so embedding a Server with no explicit config gets
// micro-batching out of the box.
type ServeConfig struct {
	// Batch is the flush threshold in traces: a shared inference call
	// launches as soon as the pending queue holds this many. 0 = 32; at 1
	// nothing coalesces — every queued request crosses the threshold on
	// arrival and flushes itself.
	Batch int
	// Wait is the flush deadline: the oldest queued request never waits
	// longer than this for co-batched company. 0 = 2ms.
	Wait time.Duration
	// Workers is passed to core's ScoreBatch per flush; 0 = GOMAXPROCS.
	Workers int

	// noSolo disables the lone-request fast path, forcing every request
	// through the queue + deadline machinery. Tests use it to make flush
	// timing observable; production keeps the bypass.
	noSolo bool
}

const (
	defaultServeBatch = 32
	defaultServeWait  = 2 * time.Millisecond
)

// withDefaults resolves zero fields to the built-in defaults.
func (c ServeConfig) withDefaults() ServeConfig {
	if c.Batch == 0 {
		c.Batch = defaultServeBatch
	}
	if c.Wait == 0 {
		c.Wait = defaultServeWait
	}
	return c
}

// batchReq is one request's seat in the pending queue.
type batchReq struct {
	traces   []*trace.Trace
	enqueued time.Time
	done     chan batchOut
}

// batchOut carries a request's contiguous slice of the shared flush result.
type batchOut struct {
	durs, errs [][]float64
	losses     []float64
}

// batcher coalesces concurrent score requests against ONE model instance
// into shared ScoreBatch calls. A flush happens for one of three reasons:
//
//   - size: the pending queue reached cfg.Batch traces — the submitter that
//     crossed the threshold runs the inference inline;
//   - deadline: cfg.Wait elapsed since the first request of the batch
//     queued — the timer goroutine flushes whatever is pending;
//   - solo: a request arrived while no other request was in flight — it
//     bypasses the queue entirely, so sequential traffic pays zero added
//     latency and the deadline only ever delays requests that have company.
//
// Correctness: ScoreBatch's per-trace forward passes are independent (one
// tape per trace, per-worker arenas), so a trace's predictions and loss are
// bit-identical whatever batch it shares; demux hands each request a
// contiguous sub-slice in its own submission order, preserving the exact
// bytes an unbatched call would have returned.
type batcher struct {
	cfg ServeConfig
	m   *core.Model

	inflight atomic.Int64

	mu            sync.Mutex
	pending       []*batchReq
	pendingTraces int
	timer         *time.Timer
}

func newBatcher(m *core.Model, cfg ServeConfig) *batcher {
	return &batcher{cfg: cfg.withDefaults(), m: m}
}

// Score runs the request's traces through the shared serving path and
// returns their predictions and per-trace Eq. 5 losses, in input order.
func (b *batcher) Score(traces []*trace.Trace) (durs, errs [][]float64, losses []float64) {
	n := b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if n == 1 && !b.cfg.noSolo {
		// Nobody to share a batch with: waiting out the deadline would be
		// pure added latency.
		obs.C("modelserver.batch.flush_solo").Inc()
		obs.H("modelserver.batch.size").Observe(float64(len(traces)))
		obs.H("modelserver.batch.queue_wait_us").Observe(0)
		return b.m.ScoreBatch(traces, b.cfg.Workers)
	}

	req := &batchReq{traces: traces, enqueued: time.Now(), done: make(chan batchOut, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, req)
	b.pendingTraces += len(traces)
	if len(b.pending) == 1 {
		// First seat of a fresh batch: arm the deadline.
		b.timer = time.AfterFunc(b.cfg.Wait, b.deadlineFlush)
	}
	if b.pendingTraces >= b.cfg.Batch {
		b.timer.Stop()
		batch := b.take()
		b.mu.Unlock()
		b.run(batch, "size")
	} else {
		b.mu.Unlock()
	}
	out := <-req.done
	return out.durs, out.errs, out.losses
}

// take claims the whole pending queue (callers hold b.mu).
func (b *batcher) take() []*batchReq {
	batch := b.pending
	b.pending = nil
	b.pendingTraces = 0
	return batch
}

// deadlineFlush fires when the oldest queued request has waited cfg.Wait.
// A concurrent size-flush may have already drained the queue — then this
// is a no-op (the Stop call raced the timer having fired).
func (b *batcher) deadlineFlush() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.run(batch, "deadline")
	}
}

// run executes one shared inference over the batch and demuxes results
// back to their requests as contiguous sub-slices.
func (b *batcher) run(batch []*batchReq, reason string) {
	now := time.Now()
	total := 0
	for _, r := range batch {
		total += len(r.traces)
		obs.H("modelserver.batch.queue_wait_us").Observe(
			float64(now.Sub(r.enqueued)) / float64(time.Microsecond))
	}
	obs.C("modelserver.batch.flush_" + reason).Inc()
	obs.H("modelserver.batch.size").Observe(float64(total))
	obs.H("modelserver.batch.requests").Observe(float64(len(batch)))

	all := make([]*trace.Trace, 0, total)
	for _, r := range batch {
		all = append(all, r.traces...)
	}
	durs, errs, losses := b.m.ScoreBatch(all, b.cfg.Workers)
	off := 0
	for _, r := range batch {
		n := len(r.traces)
		r.done <- batchOut{durs: durs[off : off+n], errs: errs[off : off+n], losses: losses[off : off+n]}
		off += n
	}
}
