// Self-trace store: a fixed-size in-process FIFO of the most recent request
// traces, with spans of an already-resident trace merged into its entry. The
// ring is served at /debug/traces (list + fetch by ID) and queried by
// `sleuthctl trace <id>` / `sleuthctl traces -slowest`; histogram exemplars
// and firing alerts carry trace IDs that resolve here.

package obs

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// DefaultTraceRingSize is the capacity of the process ring: enough recent
// traces to debug a spike without unbounded growth.
const DefaultTraceRingSize = 256

// TraceSummary is one /debug/traces listing entry.
type TraceSummary struct {
	TraceID string `json:"traceId"`
	// Root names the earliest root span (typically "METHOD /path").
	Root string `json:"root"`
	// Services lists the distinct components contributing spans, sorted.
	Services []string `json:"services"`
	Spans    int      `json:"spans"`
	// DurationUS is the root span's duration in microseconds.
	DurationUS int64 `json:"durationUs"`
	Error      bool  `json:"error,omitempty"`
	// StartUS is the root span's start time (microseconds since epoch).
	StartUS int64 `json:"startUs"`
}

// ringEntry is one stored trace plus the bookkeeping to evict and merge.
type ringEntry struct {
	traceID string
	spans   []*trace.Span
	seq     uint64
}

// TraceRing is the fixed-capacity self-trace store: the last Cap request
// traces, oldest evicted first. All methods are safe for concurrent use and
// nil-safe (a nil ring is inert).
type TraceRing struct {
	mu      sync.Mutex
	entries []ringEntry
	byID    map[string]int // traceID → slot
	head    int
	n       int
	seq     uint64
}

// NewTraceRing creates a ring holding up to capacity traces.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRingSize
	}
	return &TraceRing{
		entries: make([]ringEntry, capacity),
		byID:    make(map[string]int, capacity),
	}
}

// ringRootSpan picks the entry span: the first parentless span, else the
// earliest-starting one (a server continuing a remote trace has a parent ID
// referencing a span in another process's ring).
func ringRootSpan(spans []*trace.Span) *trace.Span {
	var earliest *trace.Span
	for _, sp := range spans {
		if earliest == nil || sp.Start < earliest.Start {
			earliest = sp
		}
	}
	for _, sp := range spans {
		if sp.ParentID == "" {
			return sp
		}
	}
	return earliest
}

// Add stores a completed request trace, evicting the oldest resident trace
// once the ring is full. Spans of a trace already resident (another request
// of the same distributed trace hitting this process) merge into the
// existing entry, which keeps its slot.
func (r *TraceRing) Add(spans []*trace.Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	traceID := spans[0].TraceID
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot, ok := r.byID[traceID]; ok {
		r.mergeLocked(slot, spans)
		return
	}
	e := &r.entries[r.head]
	if e.traceID != "" {
		delete(r.byID, e.traceID)
	}
	e.traceID = traceID
	e.spans = append(e.spans[:0], spans...)
	r.seq++
	e.seq = r.seq
	r.byID[traceID] = r.head
	r.head++
	if r.head == len(r.entries) {
		r.head = 0
	}
	if r.n < len(r.entries) {
		r.n++
	}
}

// mergeLocked appends new spans into an existing entry, deduplicating by
// span ID (a replayed trace can carry spans this process already holds).
func (r *TraceRing) mergeLocked(slot int, spans []*trace.Span) {
	e := &r.entries[slot]
	seen := make(map[string]bool, len(e.spans))
	for _, sp := range e.spans {
		seen[sp.SpanID] = true
	}
	for _, sp := range spans {
		if !seen[sp.SpanID] {
			e.spans = append(e.spans, sp)
			seen[sp.SpanID] = true
		}
	}
}

// Get returns copies of the stored spans of one trace (nil if absent).
func (r *TraceRing) Get(traceID string) []*trace.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.byID[traceID]
	if !ok {
		return nil
	}
	out := make([]*trace.Span, len(r.entries[slot].spans))
	for i, sp := range r.entries[slot].spans {
		cp := *sp
		out[i] = &cp
	}
	return out
}

// Len returns the number of resident traces.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// List summarises resident traces, newest first.
func (r *TraceRing) List() []TraceSummary {
	return r.list(func(a, b *listRow) bool { return a.seq > b.seq })
}

// Slowest summarises resident traces, longest root duration first.
func (r *TraceRing) Slowest() []TraceSummary {
	return r.list(func(a, b *listRow) bool {
		if a.sum.DurationUS != b.sum.DurationUS {
			return a.sum.DurationUS > b.sum.DurationUS
		}
		return a.seq > b.seq
	})
}

type listRow struct {
	sum TraceSummary
	seq uint64
}

func (r *TraceRing) list(less func(a, b *listRow) bool) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rows := make([]listRow, 0, r.n)
	for i := range r.entries {
		e := &r.entries[i]
		if e.traceID == "" {
			continue
		}
		root := ringRootSpan(e.spans)
		sum := TraceSummary{
			TraceID: e.traceID,
			Spans:   len(e.spans),
		}
		if root != nil {
			sum.Root = root.Name
			sum.DurationUS = root.Duration()
			sum.StartUS = root.Start
		}
		svc := map[string]bool{}
		for _, sp := range e.spans {
			if sp.Error {
				sum.Error = true
			}
			svc[sp.Service] = true
		}
		for s := range svc {
			sum.Services = append(sum.Services, s)
		}
		sort.Strings(sum.Services)
		rows = append(rows, listRow{sum: sum, seq: e.seq})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return less(&rows[i], &rows[j]) })
	out := make([]TraceSummary, len(rows))
	for i := range rows {
		out[i] = rows[i].sum
	}
	return out
}

// --- Process-wide ring -----------------------------------------------------

// globalRing is the process self-trace store; nil while observability is
// disabled. Created by Enable alongside the metrics registry.
var globalRing atomic.Pointer[TraceRing]

// Ring returns the process self-trace ring, or nil when disabled.
func Ring() *TraceRing { return globalRing.Load() }

// TracesListResponse is the /debug/traces listing document.
type TracesListResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// TracesHandler serves the self-trace ring:
//
//	GET /debug/traces                 list resident traces, newest first
//	GET /debug/traces?slowest=1&n=20  longest root durations first
//	GET /debug/traces?id=<traceID>    the trace's spans (canonical JSON)
//
// A nil ring serves an empty listing and 404s fetches — probe-safe whether
// or not observability is enabled.
func TracesHandler(ring *TraceRing) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("id"); id != "" {
			spans := ring.Get(id)
			if spans == nil {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			WriteJSON(w, spans)
			return
		}
		var sums []TraceSummary
		if r.URL.Query().Get("slowest") != "" {
			sums = ring.Slowest()
		} else {
			sums = ring.List()
		}
		if raw := r.URL.Query().Get("n"); raw != "" {
			if n, err := strconv.Atoi(raw); err == nil && n >= 0 && n < len(sums) {
				sums = sums[:n]
			}
		}
		if sums == nil {
			sums = []TraceSummary{}
		}
		WriteJSON(w, TracesListResponse{Traces: sums})
	}
}
