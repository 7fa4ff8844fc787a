package modelserver

import (
	"sync"
	"time"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// batchReq is one request's seat in the queue.
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

// batcher is the scoring queue of ONE model instance: group commit over
// ScoreBatch. A request that finds the model idle is scored at once.
// Requests that arrive while a flush runs wait, and the next flush — started
// the moment the current one ends — scores all of them together. There is
// no timer and no size threshold: a batch is whatever queued during the
// previous flush, so a request waits at most one flush before its own.
//
// Correctness: ScoreBatch's per-trace forward passes are independent (one
// tape per trace, pooled per-worker workspaces), so a trace's predictions
// and loss are bit-identical whatever batch it shares; each request gets a
// contiguous sub-slice in its own submission order, preserving the exact
// bytes an unbatched call would have returned.
type batcher struct {
	m *core.Model

	mu      sync.Mutex
	busy    bool // a flush is running
	pending []*batchReq
}

// Score runs the request's traces through the model's queue and returns
// their predictions and per-trace Eq. 5 losses, in input order.
func (b *batcher) Score(traces []*trace.Trace) (durs, errs [][]float64, losses []float64) {
	req := &batchReq{traces: traces, done: make(chan batchOut, 1)}
	b.mu.Lock()
	if b.busy {
		req.enqueued = time.Now()
		b.pending = append(b.pending, req)
		b.mu.Unlock()
	} else {
		b.busy = true
		b.mu.Unlock()
		b.flush([]*batchReq{req})
	}
	out := <-req.done
	return out.durs, out.errs, out.losses
}

// flush scores one batch, hands each request its results and releases the
// queue. A request that found the model idle has no enqueue time and
// records a queue wait of 0.
func (b *batcher) flush(batch []*batchReq) {
	all := batch[0].traces
	if len(batch) > 1 {
		all = nil
		for _, r := range batch {
			all = append(all, r.traces...)
		}
	}
	now := time.Now()
	for _, r := range batch {
		var wait time.Duration
		if !r.enqueued.IsZero() {
			wait = now.Sub(r.enqueued)
		}
		obs.H("modelserver.batch.queue_wait_us").Observe(float64(wait) / float64(time.Microsecond))
	}
	obs.H("modelserver.batch.size").Observe(float64(len(all)))
	durs, errs, losses := b.m.ScoreBatch(all, 0)
	off := 0
	for _, r := range batch {
		n := len(r.traces)
		r.done <- batchOut{durs: durs[off : off+n], errs: errs[off : off+n], losses: losses[off : off+n]}
		off += n
	}
	b.release()
}

// release ends a flush. The requests that queued behind it go out together
// in the next flush, started at once on a new goroutine so no handler runs
// more than one; with none queued the model turns idle.
func (b *batcher) release() {
	b.mu.Lock()
	next := b.pending
	b.pending = nil
	b.busy = len(next) > 0
	b.mu.Unlock()
	if len(next) > 0 {
		go b.flush(next)
	}
}
