// Request tracing: AccessLog opens one Tracer per traced HTTP request, the
// handler adds child spans through SpanFrom, and on completion the spans
// move into the process TraceRing. The spans use the exact trace.Span
// model Sleuth analyzes, so a ring-resident request trace round-trips
// through the internal/otel codecs and re-ingests through the collector.

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

// Tracer is the in-flight span buffer of one request: a tree of spans
// sharing a trace ID, handed to the TraceRing when the request ends. A nil
// *Tracer is fully inert — Start returns a nil *StageSpan and every method
// on a nil span is a no-op, so handlers trace unconditionally and only
// traced requests pay.
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

// NewTracer creates a request tracer recording spans under service. When
// parent is valid (extracted from an incoming traceparent) the tracer
// continues the remote trace and its root-level spans link under the remote
// span. Otherwise it takes parent.TraceID, or a fresh random W3C trace ID
// (32 hex chars) when that is empty, and starts a new root.
func NewTracer(service string, parent SpanContext) *Tracer {
	t := &Tracer{
		service:  service,
		traceID:  parent.TraceID,
		idPrefix: randIDPrefix(),
		now:      func() int64 { return time.Now().UnixMicro() },
	}
	if t.traceID == "" {
		t.traceID = NewTraceID()
	}
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
