package otel

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// maxDepth is encoding/json's nesting limit: a document with more open
// objects and arrays than this is rejected, wherever the nesting sits.
const maxDepth = 10000

// What more finds behind it: a container just opened, a complete value, or
// a null standing where the container was expected.
const (
	afterOpen = iota
	afterValue
	afterNull
)

// scanner is a strict single-pass JSON reader over one request body. The
// decoders drive it field by field; nothing it holds outlives the call, and
// nothing a decoder returns points into data.
//
// The first error sticks and moves the cursor to the end of the input, so
// every later read fails fast and every loop over more ends.
type scanner struct {
	data   []byte
	pos    int
	depth  int
	after  int
	floats bool // skip also rejects numbers outside float64, as an interface{} field does
	err    error
	buf    []byte // text of the last string that needed unescaping
	*scratch

	// The span being read's own and parent IDs (and a Jaeger reference's
	// span ID), copied here until ids makes the span's two one string.
	spanID, parentID, refID []byte
}

// scratch is what a decode call borrows from the pool for its duration:
// the interning table, Jaeger's process table, and the spans read so far,
// which result copies into an exact-size slice. All three go back emptied,
// so nothing outlives its call through them.
type scratch struct {
	strs, procs map[string]string
	spans       []*trace.Span
}

// maxPooled is the most entries a scratch table or span list may hold and
// still go back to the pool: a hostile body can grow its own without
// bound, but what it grew goes to the GC with the request.
const maxPooled = 4096

var scratches = sync.Pool{New: func() any {
	return &scratch{strs: make(map[string]string, 64), procs: map[string]string{}}
}}

// put empties sc and returns it to the pool, unless a table or the span
// list grew past maxPooled.
func (sc *scratch) put() {
	if len(sc.strs) > maxPooled || len(sc.procs) > maxPooled || cap(sc.spans) > maxPooled {
		return
	}
	clear(sc.strs)
	clear(sc.procs)
	clear(sc.spans)
	sc.spans = sc.spans[:0]
	scratches.Put(sc)
}

// newScanner starts a scan of data with a pooled scratch; release gives
// it back.
func newScanner(data []byte) scanner {
	return scanner{data: data, scratch: scratches.Get().(*scratch)}
}

func (s *scanner) release() {
	s.scratch.put()
	s.scratch = nil
}

// result returns the spans read as a slice of their own, nil for none.
func (s *scanner) result() []*trace.Span {
	if len(s.spans) == 0 {
		return nil
	}
	return append([]*trace.Span(nil), s.spans...)
}

func (s *scanner) fail(msg string) {
	if s.err == nil {
		s.err = fmt.Errorf("%s at offset %d", msg, s.pos)
		s.pos = len(s.data)
	}
}

// end checks that only whitespace follows the top-level value and returns
// the scan's error, if any.
func (s *scanner) end() error {
	s.ws()
	if s.pos < len(s.data) {
		s.fail("unexpected data after the top-level value")
	}
	return s.err
}

func (s *scanner) ws() {
	for s.pos < len(s.data) && s.data[s.pos] <= ' ' {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 (never valid outside a string) at the end.
func (s *scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *scanner) eat(c byte) bool {
	if s.peek() == c {
		s.pos++
		return true
	}
	return false
}

// lit consumes word if the input continues with it. What follows a literal
// is checked by whoever reads on: more, or end.
func (s *scanner) lit(word string) bool {
	if rest := s.data[s.pos:]; len(rest) >= len(word) && string(rest[:len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

func (s *scanner) null() bool {
	s.ws()
	return s.lit("null")
}

func (s *scanner) enter() {
	if s.depth++; s.depth > maxDepth {
		s.fail("exceeded max depth")
	}
}

// open and more walk a container: for s.open('['); s.more(']'); { … } runs
// the body once per element, positioned at the element ('{' and '}' for an
// object, positioned at the key). A null in place of the container runs it
// zero times, which is how encoding/json treats null for every type.
func (s *scanner) open(c byte) {
	switch {
	case s.null():
		s.after = afterNull
	case s.eat(c):
		s.enter()
		s.after = afterOpen
	default:
		s.fail("expected " + string(c))
	}
}

func (s *scanner) more(closer byte) bool {
	after := s.after
	s.after = afterValue
	if s.err != nil || after == afterNull {
		return false
	}
	s.ws()
	if s.eat(closer) {
		s.depth--
		return false
	}
	if after == afterValue && !s.eat(',') {
		s.fail("expected , or " + string(closer))
		return false
	}
	return true
}

// only walks an object of which one field matters: it is more('}') that
// stops only at that field's values and skips every other.
func (s *scanner) only(name string) bool {
	for s.more('}') {
		if k := s.rawKey(); string(k) == name || strings.EqualFold(string(k), name) {
			return true
		}
		s.skip()
	}
	return false
}

// fields walks an object, handing each key to field, which reads the value
// and reports true if it knows the key. A key it does not know is handed
// over once more as the entry of names it equals case-insensitively (the
// way encoding/json matches struct fields: an exact match first, so the
// EqualFold scan runs only on a miss), and skipped if that fails too.
func (s *scanner) fields(names []string, field func(key []byte) bool) {
	for s.open('{'); s.more('}'); {
		k := s.rawKey()
		if !field(k) && !field(fold(k, names)) {
			s.skip()
		}
	}
}

// fold returns the entry of names that k equals case-insensitively, or nil.
func fold(k []byte, names []string) []byte {
	for _, n := range names {
		if strings.EqualFold(string(k), n) {
			return []byte(n)
		}
	}
	return nil
}

// rawKey reads an object key and its colon; the bytes are valid until the
// next string is read.
func (s *scanner) rawKey() []byte {
	s.ws()
	k := s.str()
	s.ws()
	if !s.eat(':') {
		s.fail("expected : after object key")
	}
	return k
}

// str reads a string token and returns its text, valid until the next
// string is read. Plain ASCII is returned in place; anything else goes
// through unescape.
func (s *scanner) str() []byte {
	if !s.eat('"') {
		s.fail("expected a string")
		return nil
	}
	start := s.pos
	for i, c := range s.data[start:] {
		switch {
		case c == '"':
			s.pos = start + i + 1
			return s.data[start : start+i]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			s.pos = start + i
			return s.unescape(start)
		}
	}
	s.pos = len(s.data)
	s.fail("unterminated string")
	return nil
}

// unescape finishes a string whose plain prefix is data[start:pos], decoding
// escapes as encoding/json does: an unpaired surrogate escape and each byte
// of invalid UTF-8 become U+FFFD.
func (s *scanner) unescape(start int) []byte {
	b := append(s.buf[:0], s.data[start:s.pos]...)
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			s.buf = b
			return b
		case c < ' ':
			s.fail("control character in string")
			return nil
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s.data[s.pos:])
			b = utf8.AppendRune(b, r)
			s.pos += n
		case c != '\\':
			b = append(b, c)
			s.pos++
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == 'u':
			r := s.u4()
			if r < 0 {
				s.fail("bad \\u escape")
				return nil
			}
			s.pos += 6
			if utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, s.u4()); r != utf8.RuneError {
					s.pos += 6
				}
			}
			b = utf8.AppendRune(b, r)
		default:
			s.pos++
			i := strings.IndexByte(`"\/bfnrt`, s.peek())
			if i < 0 {
				s.fail("bad escape")
				return nil
			}
			b = append(b, "\"\\/\b\f\n\r\t"[i])
			s.pos++
		}
	}
	s.fail("unterminated string")
	return nil
}

// u4 decodes the \uXXXX escape at the cursor without moving it, or returns
// -1 if there is none.
func (s *scanner) u4() rune {
	esc := s.data[s.pos:]
	if len(esc) < 6 || esc[0] != '\\' || esc[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range esc[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a number token against the full JSON grammar and reports its
// text and whether it is a plain integer (no fraction, no exponent).
func (s *scanner) number() (text []byte, integer bool) {
	start := s.pos
	s.eat('-')
	integer = s.eat('0') || s.digits()
	ok := integer
	if s.eat('.') {
		integer, ok = false, ok && s.digits()
	}
	if s.eat('e') || s.eat('E') {
		_ = s.eat('+') || s.eat('-')
		integer, ok = false, ok && s.digits()
	}
	if !ok {
		s.fail("expected a value")
	}
	return s.data[start:s.pos], integer
}

func (s *scanner) digits() bool {
	start := s.pos
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.pos++
	}
	return s.pos > start
}

// skip validates and discards one value of any shape. It keeps its own
// stack of open containers instead of recursing, so hostile nesting costs a
// byte per level up to maxDepth and then an error.
func (s *scanner) skip() {
	closers := make([]byte, 0, 64)
	for {
		s.ws()
		switch c := s.peek(); c {
		case '{', '[':
			s.pos++
			s.enter()
			s.ws()
			if s.eat(c + 2) { // '{'+2 == '}', '['+2 == ']'
				s.depth--
				break
			}
			closers = append(closers, c+2)
			if c == '{' {
				s.rawKey()
			}
			continue
		case '"':
			s.str()
		case 't', 'f', 'n':
			if !s.lit("true") && !s.lit("false") && !s.lit("null") {
				s.fail("expected a value")
			}
		default:
			if text, _ := s.number(); s.floats {
				if _, err := strconv.ParseFloat(string(text), 64); err != nil {
					s.fail("number out of range")
				}
			}
		}
		// A value is complete: close what it completes, then step to the
		// next value of the innermost container still open.
		for {
			if s.err != nil || len(closers) == 0 {
				return
			}
			s.ws()
			closer := closers[len(closers)-1]
			if s.eat(',') {
				if closer == '}' {
					s.rawKey()
				}
				break
			}
			if !s.eat(closer) {
				s.fail("expected , or " + string(closer))
				return
			}
			s.depth--
			closers = closers[:len(closers)-1]
		}
	}
}

// The typed readers below fill a field from the next value. A null leaves
// the field as it is, a value of another JSON type fails the scan — both as
// encoding/json does for a struct field of that Go type.

// text reads a string value; ok is false for null.
func (s *scanner) text() (b []byte, ok bool) {
	if s.null() {
		return nil, false
	}
	return s.str(), true
}

func (s *scanner) strTo(dst *string) {
	if b, ok := s.text(); ok {
		*dst = string(b)
	}
}

// internTo is strTo for the strings a payload repeats span after span
// (trace ID, service, operation, pod, node, attribute keys): equal values
// share one allocation within the call.
func (s *scanner) internTo(dst *string) {
	if b, ok := s.text(); ok {
		*dst = s.intern(b)
	}
}

func (s *scanner) intern(b []byte) string {
	if v, ok := s.strs[string(b)]; ok {
		return v
	}
	v := string(b)
	s.strs[v] = v
	return v
}

// idTo reads a string value into dst, one of the scanner's ID buffers.
func (s *scanner) idTo(dst *[]byte) {
	if b, ok := s.text(); ok {
		*dst = append((*dst)[:0], b...)
	}
}

// newSpan empties the ID buffers for the next span.
func (s *scanner) newSpan() {
	s.spanID, s.parentID = s.spanID[:0], s.parentID[:0]
}

// ids returns the span's own and parent IDs as two slices of one string:
// one allocation for both.
func (s *scanner) ids() (span, parent string) {
	n := len(s.spanID)
	s.spanID = append(s.spanID, s.parentID...)
	both := string(s.spanID)
	return both[:n], both[n:]
}

func (s *scanner) intTo(dst *int64) {
	if s.null() {
		return
	}
	text, integer := s.number()
	v, err := strconv.ParseInt(string(text), 10, 64)
	if !integer || err != nil {
		s.fail("expected a 64-bit integer")
		return
	}
	*dst = v
}

func (s *scanner) boolTo(dst *bool) {
	switch {
	case s.null():
	case s.lit("true"):
		*dst = true
	case s.lit("false"):
		*dst = false
	default:
		s.fail("expected true or false")
	}
}
