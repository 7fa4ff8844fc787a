// Self-tracing: Sleuth records its own pipeline stages (simulate → collect
// → featurize → GNN forward/backward → cluster → localize) as spans in the
// exact model it analyzes. The resulting span tree round-trips through the
// internal/otel codecs, so sleuthctl can replay Sleuth's own execution
// through the same assembly/critical-path/exclusive-duration machinery it
// applies to production traces.

package obs

import (
	"math/rand/v2"
	"sync"
	"time"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// randIDPrefix draws the 32-bit span-ID salt of a new tracer.
func randIDPrefix() uint32 {
	for {
		if p := rand.Uint32(); p != 0 {
			return p
		}
	}
}

// Tracer records one self-trace: a tree of pipeline-stage spans sharing a
// trace ID. A nil *Tracer is fully inert — Start returns a nil *StageSpan
// and every method on a nil span is a no-op, so pipeline code traces
// unconditionally and callers opt in by supplying a tracer.
type Tracer struct {
	mu      sync.Mutex
	service string
	traceID string
	// remoteParent is the span ID extracted from an incoming traceparent
	// header; the first root-level span parents under it, joining this
	// process's spans into the caller's distributed trace.
	remoteParent string
	// idPrefix salts span IDs so tracers in different processes contributing
	// to the same distributed trace never collide: every span ID is the
	// 16-hex concatenation of the prefix and a per-tracer sequence number —
	// W3C wire format, deterministic ordering within one tracer.
	idPrefix uint32
	nextID   uint32
	spans    []*trace.Span
	// now returns microseconds since the epoch; injectable for tests.
	now func() int64
}

// NewTracer creates a self-tracer. service names the pipeline component
// (span Service field); traceID may be empty, in which case a random W3C
// trace ID (32 hex chars) is generated so the trace can propagate across
// process boundaries via traceparent.
func NewTracer(service, traceID string) *Tracer {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &Tracer{
		service:  service,
		traceID:  traceID,
		idPrefix: randIDPrefix(),
		now:      func() int64 { return time.Now().UnixMicro() },
	}
}

// NewRequestTracer creates the per-request tracer used by the AccessLog
// middleware: when parent is valid (extracted from an incoming traceparent)
// the tracer continues the remote trace and its first root span links under
// the remote span; otherwise it starts a fresh root trace.
func NewRequestTracer(service string, parent SpanContext) *Tracer {
	t := NewTracer(service, parent.TraceID)
	if parent.Valid() {
		t.remoteParent = parent.SpanID
	}
	return t
}

// TraceID returns the tracer's trace ID ("" on a nil tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Service returns the component name the tracer records spans under.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// SetClock overrides the microsecond clock (tests).
func (t *Tracer) SetClock(now func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// StageSpan is a live span handle. Obtain via Tracer.Start or
// StageSpan.Child; finish with End.
type StageSpan struct {
	t  *Tracer
	sp *trace.Span
}

// Start opens a root-level stage span (parent == nil) or a child of parent.
// Root-level spans of a tracer continuing a remote trace link under the
// remote parent span, producing the cross-process parent/child edge.
func (t *Tracer) Start(name string, parent *StageSpan) *StageSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	var id [16]byte
	putHex64(id[:], uint64(t.idPrefix)<<32|uint64(t.nextID))
	sp := &trace.Span{
		TraceID: t.traceID,
		SpanID:  string(id[:]),
		Service: t.service,
		Name:    name,
		Kind:    trace.KindInternal,
		Start:   t.now(),
	}
	if parent != nil && parent.sp != nil {
		sp.ParentID = parent.sp.SpanID
	} else if t.remoteParent != "" {
		sp.ParentID = t.remoteParent
	}
	t.spans = append(t.spans, sp)
	return &StageSpan{t: t, sp: sp}
}

// Child opens a sub-stage span under s.
func (s *StageSpan) Child(name string) *StageSpan {
	if s == nil {
		return nil
	}
	return s.t.Start(name, s)
}

// End closes the span at the current clock. Safe to call once per span; a
// second call is ignored.
func (s *StageSpan) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.sp.End == 0 {
		s.sp.End = s.t.now()
		if s.sp.End <= s.sp.Start {
			// Sub-microsecond stages: keep End > Start so the span model's
			// duration and interval logic stay meaningful.
			s.sp.End = s.sp.Start + 1
		}
	}
}

// SetKind overrides the span kind (server/client edges of a cross-process
// call; the default is internal).
func (s *StageSpan) SetKind(k trace.Kind) {
	if s == nil || !k.Valid() {
		return
	}
	s.t.mu.Lock()
	s.sp.Kind = k
	s.t.mu.Unlock()
}

// TraceID returns the trace ID the span belongs to ("" on a nil span).
func (s *StageSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.traceID
}

// SetError marks the stage as failed.
func (s *StageSpan) SetError(failed bool) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.sp.Error = failed
	s.t.mu.Unlock()
}

// Annotate attaches a key/value attribute to the stage span.
func (s *StageSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.sp.Attrs == nil {
		s.sp.Attrs = map[string]string{}
	}
	s.sp.Attrs[key] = value
	s.t.mu.Unlock()
}

// Spans returns copies of all recorded spans. Spans not yet ended are
// closed at the current clock in the copy (the live span stays open), so
// the result always assembles. The copies are safe to hand to codecs and
// stores.
func (t *Tracer) Spans() []*trace.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*trace.Span, len(t.spans))
	for i, sp := range t.spans {
		cp := *sp
		if cp.End == 0 {
			cp.End = t.now()
			if cp.End <= cp.Start {
				cp.End = cp.Start + 1
			}
		}
		if len(sp.Attrs) > 0 {
			cp.Attrs = make(map[string]string, len(sp.Attrs))
			for k, v := range sp.Attrs {
				cp.Attrs[k] = v
			}
		}
		out[i] = &cp
	}
	return out
}

// Trace assembles the recorded spans into a trace.Trace — the self-trace
// viewed through the same machinery Sleuth applies to application traces.
func (t *Tracer) Trace() (*trace.Trace, error) {
	if t == nil {
		return nil, trace.ErrEmptyTrace
	}
	return trace.Assemble(t.Spans())
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
