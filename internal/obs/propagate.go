// W3C Trace Context propagation: the traceparent header carries
// (trace ID, parent span ID, sampled flag) across process boundaries, so a
// caller that sends one gets its request joined into its own span tree
// instead of a per-process island. The parser is deliberately
// paranoid — self-tracing must never let a hostile or malformed header
// poison a trace, so every reject path falls back to a fresh root trace.

package obs

import (
	"context"
	"math/rand/v2"
	"net/http"
)

// TraceparentHeader is the W3C Trace Context request header.
const TraceparentHeader = "traceparent"

// SpanContext identifies one span for cross-process propagation: the wire
// half of a StageSpan. A zero SpanContext is invalid.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars
	SpanID  string // 16 lowercase hex chars
	Sampled bool
}

// Valid reports whether the context is wire-encodable: both IDs in W3C hex
// form and not all-zero.
func (sc SpanContext) Valid() bool {
	return isLowerHex(sc.TraceID, 32) && !allZero(sc.TraceID) &&
		isLowerHex(sc.SpanID, 16) && !allZero(sc.SpanID)
}

// Traceparent renders the context as a version-00 traceparent value — the
// round-trip partner of ParseTraceparent — or "" when the context is not
// wire-encodable (internal trace IDs that are not 128-bit hex stay
// process-local rather than emitting a corrupt header).
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = append(b, sc.TraceID...)
	b = append(b, '-')
	b = append(b, sc.SpanID...)
	if sc.Sampled {
		b = append(b, "-01"...)
	} else {
		b = append(b, "-00"...)
	}
	return string(b)
}

// maxTraceparentLen bounds the header length scanned by ParseTraceparent:
// version-00 values are exactly 55 bytes and future versions may append
// "-"-separated fields, but nothing legitimate approaches this bound.
const maxTraceparentLen = 128

// ParseTraceparent parses a traceparent header value. It accepts
// version-00 values and (per the W3C spec's forward-compatibility rule)
// higher versions whose first four fields parse, and rejects everything
// else: truncated or oversized values, the reserved version ff, uppercase
// or non-hex digits, and all-zero trace or span IDs. ok is false on any
// reject, and callers fall back to a fresh root span — a hostile header
// can therefore never poison a trace.
func ParseTraceparent(h string) (sc SpanContext, ok bool) {
	if len(h) < 55 || len(h) > maxTraceparentLen {
		return SpanContext{}, false
	}
	version, rest := h[:2], h[2:]
	if !isLowerHex(version, 2) || version == "ff" {
		return SpanContext{}, false
	}
	if version == "00" && len(h) != 55 {
		return SpanContext{}, false
	}
	// Future versions may carry extra fields, but only after a separator.
	if len(h) > 55 && h[55] != '-' {
		return SpanContext{}, false
	}
	if rest[0] != '-' || rest[33] != '-' || rest[50] != '-' {
		return SpanContext{}, false
	}
	traceID, spanID, flags := rest[1:33], rest[34:50], rest[51:53]
	if !isLowerHex(traceID, 32) || allZero(traceID) {
		return SpanContext{}, false
	}
	if !isLowerHex(spanID, 16) || allZero(spanID) {
		return SpanContext{}, false
	}
	if !isLowerHex(flags, 2) {
		return SpanContext{}, false
	}
	return SpanContext{
		TraceID: traceID,
		SpanID:  spanID,
		Sampled: hexNibble(flags[1])&0x01 == 0x01,
	}, true
}

// ParseTraceparentHeader extracts and parses the traceparent header of an
// incoming request.
func ParseTraceparentHeader(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}

// isLowerHex reports whether s is exactly n lowercase hex digits.
func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// allZero reports whether s consists only of '0' characters.
func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// hexNibble decodes one lowercase hex digit (validated by the caller).
func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// --- ID generation ---------------------------------------------------------

const hexDigits = "0123456789abcdef"

// putHex64 renders u as 16 lowercase hex digits into dst.
func putHex64(dst []byte, u uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[u&0xf]
		u >>= 4
	}
}

// NewTraceID returns a random 128-bit W3C trace ID (32 lowercase hex).
func NewTraceID() string {
	var b [32]byte
	hi := rand.Uint64()
	lo := rand.Uint64()
	if hi == 0 && lo == 0 {
		lo = 1 // the all-zero ID is reserved as invalid
	}
	putHex64(b[:16], hi)
	putHex64(b[16:], lo)
	return string(b[:])
}

// --- Context plumbing ------------------------------------------------------

// ctxKeySpan is the context key of the live stage span.
type ctxKeySpan struct{}

// ContextWithSpan attaches a live stage span to a context; handlers
// retrieve it with SpanFrom to create child spans.
func ContextWithSpan(ctx context.Context, sp *StageSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan{}, sp)
}

// SpanFrom returns the stage span carried by ctx, or nil. All StageSpan
// methods are nil-safe, so callers chain unconditionally:
// obs.SpanFrom(ctx).Child("decode").
func SpanFrom(ctx context.Context) *StageSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKeySpan{}).(*StageSpan)
	return sp
}

// TraceIDFrom returns the self-trace ID active in ctx, or "" — the join key
// for exemplars and log lines.
func TraceIDFrom(ctx context.Context) string {
	return SpanFrom(ctx).TraceID()
}
