package obs

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

// Canonical IDs of the traceparentCases table.
const (
	tpTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	tpSpanID  = "00f067aa0ba902b7"
)

// traceparentCase is one header of the hostile-header gauntlet: whether
// ParseTraceparent must accept it and, if so, its sampled flag.
type traceparentCase struct {
	name    string
	in      string
	ok      bool
	sampled bool
}

// traceparentCases is TestParseTraceparent's table and
// FuzzParseTraceparent's seed corpus.
func traceparentCases() []traceparentCase {
	const (
		tid = tpTraceID
		sid = tpSpanID
	)
	valid := "00-" + tid + "-" + sid + "-01"
	return []traceparentCase{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-" + tid + "-" + sid + "-00", true, false},
		{"extra flag bits set", "00-" + tid + "-" + sid + "-ff", true, true},
		{"flags 02 not sampled", "00-" + tid + "-" + sid + "-02", true, false},
		{"future version", "cc-" + tid + "-" + sid + "-01", true, true},
		{"future version extra fields", "cc-" + tid + "-" + sid + "-01-extra-stuff", true, true},

		{"empty", "", false, false},
		{"garbage", "not-a-traceparent", false, false},
		{"truncated", valid[:54], false, false},
		{"truncated mid trace id", "00-" + tid[:16], false, false},
		{"oversized", valid + "-" + strings.Repeat("x", 200), false, false},
		{"version 00 with trailing data", valid + "-extra", false, false},
		{"future version without separator", "cc-" + tid + "-" + sid + "-01xtra", false, false},
		{"reserved version ff", "ff-" + tid + "-" + sid + "-01", false, false},
		{"uppercase version", "0A-" + tid + "-" + sid + "-01", false, false},
		{"non-hex version", "0g-" + tid + "-" + sid + "-01", false, false},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + sid + "-01", false, false},
		{"all-zero span id", "00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, false},
		{"uppercase trace id", "00-" + strings.ToUpper(tid) + "-" + sid + "-01", false, false},
		{"non-hex trace id", "00-" + tid[:31] + "z-" + sid + "-01", false, false},
		{"non-hex span id", "00-" + tid + "-" + sid[:15] + "g-01", false, false},
		{"non-hex flags", "00-" + tid + "-" + sid + "-0x", false, false},
		{"wrong separator after version", "00_" + tid + "-" + sid + "-01", false, false},
		{"wrong separator after trace id", "00-" + tid + "_" + sid + "-01", false, false},
		{"wrong separator after span id", "00-" + tid + "-" + sid + "_01", false, false},
	}
}

// TestParseTraceparent is the hostile-header gauntlet: a malformed or
// adversarial traceparent must be rejected (ok == false, zero context) so
// the middleware falls back to a fresh root trace — never a poisoned one.
func TestParseTraceparent(t *testing.T) {
	for _, c := range traceparentCases() {
		t.Run(c.name, func(t *testing.T) {
			sc, ok := ParseTraceparent(c.in)
			if ok != c.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
			}
			if !ok {
				if sc != (SpanContext{}) {
					t.Fatalf("rejected header returned non-zero context %+v", sc)
				}
				return
			}
			if sc.TraceID != tpTraceID || sc.SpanID != tpSpanID {
				t.Fatalf("parsed IDs = %q/%q, want %q/%q", sc.TraceID, sc.SpanID, tpTraceID, tpSpanID)
			}
			if sc.Sampled != c.sampled {
				t.Fatalf("sampled = %v, want %v", sc.Sampled, c.sampled)
			}
		})
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics on any header, and
// whatever it accepts is a valid context that renders to a version-00
// header parsing back to the same context.
func FuzzParseTraceparent(f *testing.F) {
	for _, c := range traceparentCases() {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted invalid context %+v", h, sc)
		}
		if back, ok := ParseTraceparent(sc.Traceparent()); !ok || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its rendering %q parses to %+v (ok=%v)",
				h, sc, sc.Traceparent(), back, ok)
		}
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: testSpanID, Sampled: true}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}

	h := http.Header{}
	h.Set(TraceparentHeader, sc.Traceparent())
	got, ok = ParseTraceparentHeader(h)
	if !ok || got != sc {
		t.Fatalf("header round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

// TestTraceparentInvalidContext: internal (non-wire-format) trace IDs must
// stay process-local — no corrupt traceparent to put on the wire.
func TestTraceparentInvalidContext(t *testing.T) {
	for _, sc := range []SpanContext{
		{},
		{TraceID: "selftrace-test", SpanID: "s000001", Sampled: true},
		{TraceID: strings.Repeat("0", 32), SpanID: testSpanID, Sampled: true},
	} {
		if tp := sc.Traceparent(); tp != "" {
			t.Errorf("Traceparent(%+v) = %q, want empty", sc, tp)
		}
	}
}

// testSpanID is a fixed wire-format span ID for remote parent contexts.
const testSpanID = "00f067aa0ba902b7"

// TestNewIDsAreWireFormat: fresh trace IDs and the span IDs a tracer
// mints are valid W3C IDs, so either can go on the wire in a traceparent.
func TestNewIDsAreWireFormat(t *testing.T) {
	tr := NewTracer("test", SpanContext{})
	for i := 0; i < 100; i++ {
		if tid := NewTraceID(); !isLowerHex(tid, 32) || allZero(tid) {
			t.Fatalf("NewTraceID() = %q, not 32 lowercase hex", tid)
		}
		tr.Start("op", nil).End()
	}
	for _, sp := range tr.Spans() {
		if !isLowerHex(sp.SpanID, 16) || allZero(sp.SpanID) {
			t.Fatalf("tracer span ID %q, not 16 lowercase hex", sp.SpanID)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if SpanFrom(ctx) != nil || TraceIDFrom(ctx) != "" {
		t.Fatal("empty context should carry no span")
	}

	tr := NewTracer("test", SpanContext{})
	sp := tr.Start("op", nil)
	ctx = ContextWithSpan(ctx, sp)
	if SpanFrom(ctx) != sp {
		t.Fatal("SpanFrom did not return the attached span")
	}
	if got := TraceIDFrom(ctx); got != tr.TraceID() {
		t.Fatalf("TraceIDFrom = %q, want %q", got, tr.TraceID())
	}
	// nil-safe degenerate calls
	if SpanFrom(nil) != nil {
		t.Fatal("nil context must be safe")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("a no-op attachment should return the context unchanged")
	}
}

// TestRequestTracerContinuesRemoteTrace: a valid parent makes the tracer's
// root-level spans children of the remote span in the same trace; spans
// with an explicit local parent are untouched.
func TestRequestTracerContinuesRemoteTrace(t *testing.T) {
	parent := SpanContext{TraceID: NewTraceID(), SpanID: testSpanID, Sampled: true}
	tr := NewTracer("collector", parent)
	if tr.TraceID() != parent.TraceID {
		t.Fatalf("tracer trace ID %q, want remote %q", tr.TraceID(), parent.TraceID)
	}
	root := tr.Start("POST /v1/traces", nil)
	root.Child("decode")
	spans := tr.Spans()
	if spans[0].ParentID != parent.SpanID {
		t.Fatalf("root span parent = %q, want remote span %q", spans[0].ParentID, parent.SpanID)
	}
	if spans[1].ParentID != spans[0].SpanID {
		t.Fatalf("child parent = %q, want local root %q", spans[1].ParentID, spans[0].SpanID)
	}
	if sc := (SpanContext{TraceID: spans[1].TraceID, SpanID: spans[1].SpanID}); !sc.Valid() || sc.TraceID != parent.TraceID {
		t.Fatalf("child span identity %+v not wire-valid in the remote trace", sc)
	}

	// Invalid parent → fresh root trace, no remote link.
	tr2 := NewTracer("collector", SpanContext{})
	root2 := tr2.Start("GET /stats", nil)
	_ = root2
	if got := tr2.Spans()[0].ParentID; got != "" {
		t.Fatalf("fresh tracer root has parent %q, want none", got)
	}
	if tr2.TraceID() == parent.TraceID {
		t.Fatal("fresh tracer reused the remote trace ID")
	}
}
