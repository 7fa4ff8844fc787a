package otel

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func encodeSpans(spans []*trace.Span) ([]byte, error) {
	return json.Marshal(map[string][]*trace.Span{"spans": spans})
}

// dialect pairs a scanner decoder with its reflection oracle.
type dialect struct {
	name   string
	decode func([]byte) ([]*trace.Span, error)
	oracle func([]byte) ([]*trace.Span, error)
	encode func([]*trace.Span) ([]byte, error)
}

var dialects = []dialect{
	{"otlp", DecodeOTLP, oracleOTLP, EncodeOTLP},
	{"zipkin", DecodeZipkin, oracleZipkin, EncodeZipkin},
	{"jaeger", DecodeJaeger, oracleJaeger, EncodeJaeger},
	{"spans", DecodeSpans, oracleSpans, encodeSpans},
}

// foldKey maps a key to a canonical form under the simple case folding
// that struct-field matching uses.
func foldKey(k string) string {
	return strings.Map(func(r rune) rune {
		least := r
		for c := unicode.SimpleFold(r); c != r; c = unicode.SimpleFold(c) {
			least = min(least, c)
		}
		return least
	}, k)
}

// repeatsContainerKey reports whether some object of a valid document
// repeats a key (up to case) with an array, an object or a null among the
// repeated values — the documents the package doc lists as decoded
// differently from encoding/json.
func repeatsContainerKey(data []byte) bool {
	type frame struct {
		object, wantKey bool
		key             string
		container       map[string]bool // folded key seen → one of its values was a container or null
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		delim, isDelim := tok.(json.Delim)
		if isDelim && (delim == '}' || delim == ']') {
			stack = stack[:len(stack)-1]
			continue
		}
		if top != nil && top.object && top.wantKey {
			top.key, top.wantKey = foldKey(tok.(string)), false
			continue
		}
		container := isDelim || tok == nil
		if top != nil && top.object {
			before, repeated := top.container[top.key]
			if repeated && (before || container) {
				return true
			}
			top.container[top.key] = before || container
			top.wantKey = true
		}
		if isDelim {
			stack = append(stack, &frame{object: delim == '{', wantKey: true, container: map[string]bool{}})
		}
	}
}

// checkAgainstOracle holds a decoder to its oracle on one input: an error
// from one iff from the other, and equal spans otherwise — except for the
// deliberate divergences, which are handled here one by one.
func checkAgainstOracle(t *testing.T, name string, data []byte) (spans []*trace.Span, err error) {
	t.Helper()
	d := dialectNamed(t, name)
	got, gotErr := d.decode(data)
	want, wantErr := d.oracle(data)
	if gotErr != nil && got != nil {
		t.Fatalf("%s: spans returned beside error %v", name, gotErr)
	}
	// A malformed document fails whatever else is in it.
	if syntax := (*json.SyntaxError)(nil); errors.As(wantErr, &syntax) {
		if gotErr == nil {
			t.Fatalf("%s: malformed input accepted (oracle: %v): %q", name, wantErr, data)
		}
		return got, gotErr
	}
	// Divergence 1: a repeated key holding a container.
	if repeatsContainerKey(data) {
		return got, gotErr
	}
	// Divergence 2: a null where the canonical body wants a span is
	// rejected, not decoded to a nil *Span.
	for _, sp := range want {
		if sp == nil {
			if gotErr == nil {
				t.Fatalf("%s: null span accepted: %q", name, data)
			}
			return got, gotErr
		}
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: scanner error %v, oracle error %v, input %q", name, gotErr, wantErr, data)
	}
	// Divergence 3: no spans is a nil slice, never an empty one.
	if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: spans differ on %q\n got: %s\nwant: %s", name, data, dump(got), dump(want))
	}
	return got, gotErr
}

func dialectNamed(tb testing.TB, name string) dialect {
	for _, d := range dialects {
		if d.name == name {
			return d
		}
	}
	tb.Fatalf("no dialect %q", name)
	return dialect{}
}

func dump(spans []*trace.Span) string {
	b, _ := json.Marshal(spans)
	return string(b)
}

// richSpans is sampleSpans with the optional fields the simulator leaves
// empty filled in somewhere: generic attributes, escapes, non-ASCII.
func richSpans(t testing.TB) []*trace.Span {
	spans := sampleSpans(t)
	spans[0].Attrs = map[string]string{"http.url": "/a?b=\"c\"&d=<e>", "peer": "café \U0001F600"}
	spans[1].Name = "tab\there\\and there"
	spans[1].Error = true
	return spans
}

func TestDecodeMatchesOracle(t *testing.T) {
	spans := richSpans(t)
	for _, d := range dialects {
		data, err := d.encode(spans)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkAgainstOracle(t, d.name, data)
		if err != nil || len(got) != len(spans) {
			t.Fatalf("%s: %d spans, err %v", d.name, len(got), err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "\t", "  "); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, d.name, indented.Bytes())
	}
}

// TestDecodeSpansKeepsNoInput: the collector and the model server decode
// every body out of a recycled buffer (ReadBody), so spans decoded from
// data, in any dialect, must not change when data is overwritten
// afterwards.
func TestDecodeSpansKeepsNoInput(t *testing.T) {
	spans := richSpans(t)
	for _, d := range dialects {
		data, err := d.encode(spans)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.decode(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.decode(bytes.Clone(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded spans changed when their input buffer was overwritten", d.name)
		}
	}
}

// One well-formed span per dialect, with %s where a hostile fragment goes.
const (
	otlpSpanIn   = `{"resourceSpans":[{"scopeSpans":[{"spans":[{"traceId":"t","spanId":"s","startTimeUnixNano":"1000","endTimeUnixNano":"3000"%s}]}]}]}`
	zipkinSpanIn = `[{"traceId":"t","id":"s","timestamp":1,"duration":2%s}]`
	jaegerSpanIn = `{"data":[{"spans":[{"traceID":"t","spanID":"s","startTime":1,"duration":2,"processID":"p1"%s}],"processes":{"p1":{"serviceName":"svc"}}}]}`
	spansSpanIn  = `{"spans":[{"traceId":"t","spanId":"s","start":1,"end":3%s}]}`
)

func TestDecodeHostileInput(t *testing.T) {
	deep := func(open, core, close string) string {
		return `,"x":` + strings.Repeat(open, 1_000_000) + core + strings.Repeat(close, 1_000_000)
	}
	allNull := map[string]string{
		"otlp":   `,"traceId":null,"spanId":null,"parentSpanId":null,"name":null,"kind":null,"startTimeUnixNano":null,"endTimeUnixNano":null,"status":null,"attributes":null`,
		"zipkin": `,"traceId":null,"id":null,"parentId":null,"name":null,"kind":null,"timestamp":null,"duration":null,"localEndpoint":null,"tags":null`,
		"jaeger": `,"traceID":null,"spanID":null,"operationName":null,"references":null,"startTime":null,"duration":null,"tags":null,"processID":null`,
		"spans":  `,"traceId":null,"spanId":null,"parentSpanId":null,"service":null,"name":null,"kind":null,"start":null,"end":null,"error":null,"pod":null,"node":null,"attrs":null`,
	}
	// Jaeger calls the span's name operationName.
	jaegerName := strings.NewReplacer(`"name"`, `"operationName"`, `"NAME"`, `"OPERATIONNAME"`, `"n\u0061me"`, `"operationN\u0061me"`)
	in := map[string]string{"otlp": otlpSpanIn, "zipkin": zipkinSpanIn, "jaeger": jaegerSpanIn, "spans": spansSpanIn}
	// Cases that apply to every dialect: a fragment spliced into the span.
	for _, tc := range []struct {
		name, fragment string
		wantErr        bool
		check          func(*trace.Span) bool
	}{
		{"plain", ``, false, func(sp *trace.Span) bool {
			return sp.TraceID == "t" && sp.SpanID == "s" && sp.Start == 1 && sp.End == 3
		}},
		{"deep arrays in an unknown field", deep("[", "", "]"), true, nil},
		{"deep objects in an unknown field", deep(`{"a":`, "1", "}"), true, nil},
		{"nesting at the limit in an unknown field", `,"x":` + strings.Repeat("[", 9990) + strings.Repeat("]", 9990), false, nil},
		{"unknown fields of every shape", `,"x":{"a":[1,-2.5e+3,true,false,null,"s\n",{}],"b":[]},"y":0`, false, nil},
		{"duplicate key, last wins", `,"name":"first","name":"second"`, false, func(sp *trace.Span) bool { return sp.Name == "second" }},
		{"null after a value leaves it", `,"name":"kept","name":null`, false, func(sp *trace.Span) bool { return sp.Name == "kept" }},
		{"escapes and a surrogate pair", `,"name":"a\"\\\/\b\f\n\r\t\u00e9\uD83D\ude00"`, false,
			func(sp *trace.Span) bool { return sp.Name == "a\"\\/\b\f\n\r\té\U0001F600" }},
		{"lone surrogates become U+FFFD", `,"name":"\ud83d|\ude00|\ud83dx"`, false,
			func(sp *trace.Span) bool { return sp.Name == "\ufffd|\ufffd|\ufffdx" }},
		{"invalid UTF-8 becomes U+FFFD", ",\"name\":\"a\xff\xc3(b\"", false, func(sp *trace.Span) bool { return sp.Name == "a\ufffd\ufffd(b" }},
		{"case-folded key", `,"NAME":"folded"`, false, func(sp *trace.Span) bool { return sp.Name == "folded" }},
		{"keys differing only in case", `,"TraceId":"T","SPANID":"S"`, false, nil},
		{"duplicate keys of mixed case, last wins", `,"traceId":"a","TRACEID":"b","TraceId":"c","spanId":"x","SPANID":"y"`, false,
			func(sp *trace.Span) bool { return sp.TraceID == "c" }},
		{"key folded beyond ASCII", `,"ſpanid":"x"` /* U+017F, long s */, false, nil},
		{"escaped key", `,"n\u0061me":"escaped"`, false, func(sp *trace.Span) bool { return sp.Name == "escaped" }},
		{"number in a string field", `,"name":7`, true, nil},
		{"control character in a string", ",\"name\":\"a\x01\"", true, nil},
		{"bad escape", `,"name":"\x"`, true, nil},
		{"short \\u escape", `,"name":"\u12"`, true, nil},
		{"unterminated string", `,"name":"abc`, true, nil},
		{"missing comma", ` "name":"x"`, true, nil},
		{"trailing comma", `,`, true, nil},
		{"leading zero in an unknown number", `,"x":01`, true, nil},
		{"bare minus", `,"x":-`, true, nil},
		{"truncated literal", `,"x":tru`, true, nil},
	} {
		for name, doc := range in {
			fragment := tc.fragment
			if name == "jaeger" {
				fragment = jaegerName.Replace(fragment)
			}
			data := []byte(strings.Replace(doc, "%s", fragment, 1))
			spans, err := checkAgainstOracle(t, name, data)
			if (err != nil) != tc.wantErr {
				t.Errorf("%s/%s: err = %v, want error %v", name, tc.name, err, tc.wantErr)
			} else if err == nil && (len(spans) != 1 || tc.check != nil && !tc.check(spans[0])) {
				t.Errorf("%s/%s: decoded %s", name, tc.name, dump(spans))
			}
		}
	}
	for name, doc := range in {
		spans, err := checkAgainstOracle(t, name, []byte(strings.Replace(doc, "%s", allNull[name], 1)))
		if err != nil || len(spans) != 1 || spans[0].TraceID != "t" || spans[0].End != 3 {
			t.Errorf("%s/null for every field: %s, err %v", name, dump(spans), err)
		}
	}

	// Cases written for one dialect: the whole document.
	splice := func(doc, fragment string) string { return strings.Replace(doc, "%s", fragment, 1) }
	for _, tc := range []struct {
		name, dialect, in string
		wantErr           bool
		check             func([]*trace.Span) bool
	}{
		{"empty body", "otlp", ``, true, nil},
		{"empty body", "zipkin", ``, true, nil},
		{"empty body", "jaeger", ``, true, nil},
		{"empty body", "spans", ` `, true, nil},
		{"top-level null", "otlp", `null`, false, nil},
		{"top-level null", "zipkin", ` null `, false, nil},
		{"wrong top-level type", "otlp", `[]`, true, nil},
		{"wrong top-level type", "zipkin", `{}`, true, nil},
		{"wrong top-level type", "jaeger", `"data"`, true, nil},
		{"wrong top-level type", "spans", `1`, true, nil},
		{"trailing bytes", "otlp", splice(otlpSpanIn, ``) + `{}`, true, nil},
		{"trailing bytes", "zipkin", splice(zipkinSpanIn, ``) + `]`, true, nil},
		{"trailing bytes", "jaeger", splice(jaegerSpanIn, ``) + `x`, true, nil},
		{"trailing bytes", "spans", splice(spansSpanIn, ``) + `null`, true, nil},
		{"trailing whitespace", "spans", splice(spansSpanIn, ``) + " \r\n\t", false, nil},
		{"byte-order mark", "otlp", "\xef\xbb\xbf" + splice(otlpSpanIn, ``), true, nil},
		{"deep arrays where the spans go", "zipkin", strings.Repeat("[", 10_001) + strings.Repeat("]", 10_001), true, nil},

		{"float in an integer field", "otlp", splice(otlpSpanIn, `,"kind":2.0`), true, nil},
		{"exponent kind", "otlp", splice(otlpSpanIn, `,"kind":1e3`), true, nil},
		{"negative kind", "otlp", splice(otlpSpanIn, `,"kind":-1`), false, func(s []*trace.Span) bool { return s[0].Kind == trace.KindInternal }},
		{"overflowing kind", "otlp", splice(otlpSpanIn, `,"kind":9223372036854775808`), true, nil},
		{"float status code", "otlp", splice(otlpSpanIn, `,"status":{"code":2.0}`), true, nil},
		{"exponent status code", "otlp", splice(otlpSpanIn, `,"status":{"code":1e3}`), true, nil},
		{"negative status code", "otlp", splice(otlpSpanIn, `,"status":{"code":-1}`), false, func(s []*trace.Span) bool { return !s[0].Error }},
		{"overflowing status code", "otlp", splice(otlpSpanIn, `,"status":{"code":9223372036854775808}`), true, nil},
		{"leading zeros in a time", "otlp", splice(otlpSpanIn, `,"startTimeUnixNano":"007000"`), false, func(s []*trace.Span) bool { return s[0].Start == 7 }},
		{"plus sign in a time", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":"+5000"`), false, func(s []*trace.Span) bool { return s[0].End == 5 }},
		{"minus zero time", "otlp", splice(otlpSpanIn, `,"startTimeUnixNano":"-0"`), false, func(s []*trace.Span) bool { return s[0].Start == 0 }},
		{"19-digit time", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":"9223372036854775807"`), false,
			func(s []*trace.Span) bool { return s[0].End == 9223372036854775 }},
		{"19-digit time past int64", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":"9999999999999999999"`), true, nil},
		{"20-digit time", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":"10000000000000000000"`), true, nil},
		{"empty time", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":""`), true, nil},
		{"19-digit integer", "zipkin", splice(zipkinSpanIn, `,"timestamp":-9223372036854775807,"duration":9223372036854775807`), false, nil},
		{"20-digit integer", "zipkin", splice(zipkinSpanIn, `,"timestamp":12345678901234567890`), true, nil},
		{"minus zero integer", "jaeger", splice(jaegerSpanIn, `,"startTime":-0`), false, func(s []*trace.Span) bool { return s[0].Start == 0 }},
		{"float integer", "spans", splice(spansSpanIn, `,"end":2.0`), true, nil},
		{"exponent in an integer field", "zipkin", splice(zipkinSpanIn, `,"duration":1e3`), true, nil},
		{"overflowing integer", "jaeger", splice(jaegerSpanIn, `,"duration":9223372036854775808`), true, nil},
		{"smallest integer", "spans", splice(spansSpanIn, `,"start":-9223372036854775808`), false, nil},
		{"string in an integer field", "spans", splice(spansSpanIn, `,"start":"1"`), true, nil},
		{"number in a bool field", "spans", splice(spansSpanIn, `,"error":1`), true, nil},
		{"null span", "spans", `{"spans":[null]}`, true, nil},
		{"empty attrs stay a map", "spans", splice(spansSpanIn, `,"attrs":{}`), false,
			func(s []*trace.Span) bool { return s[0].Attrs != nil }},
		{"null attr value", "spans", splice(spansSpanIn, `,"attrs":{"a":null,"A":"x"}`), false,
			func(s []*trace.Span) bool { return len(s[0].Attrs) == 2 && s[0].Attrs["a"] == "" }},
		{"non-string attr value", "spans", splice(spansSpanIn, `,"attrs":{"a":1}`), true, nil},

		{"resource after scopeSpans", "otlp",
			`{"resourceSpans":[{"scopeSpans":[{"spans":[{"startTimeUnixNano":"0","endTimeUnixNano":"0"}]}],"resource":{"attributes":[{"value":{"stringValue":"late"},"key":"service.name"}]}},{"scopeSpans":[{"spans":[{"startTimeUnixNano":"0","endTimeUnixNano":"0"}]}]}]}`,
			false, func(s []*trace.Span) bool { return len(s) == 2 && s[0].Service == "late" && s[1].Service == "" }},
		{"missing start time", "otlp", `{"resourceSpans":[{"scopeSpans":[{"spans":[{"endTimeUnixNano":"0"}]}]}]}`, true, nil},
		{"null span element", "otlp", `{"resourceSpans":[{"scopeSpans":[{"spans":[null]}]}]}`, true, nil},
		{"numeric time", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":5`), true, nil},
		{"repeated time, last one good", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":"oops","endTimeUnixNano":"+9000"`), false,
			func(s []*trace.Span) bool { return s[0].End == 9 }},
		{"repeated time, last one bad", "otlp", splice(otlpSpanIn, `,"endTimeUnixNano":"oops"`), true, nil},
		{"attributes of other types", "otlp", splice(otlpSpanIn, `,"attributes":[{"key":"n","value":{"intValue":"7"}},null,{"key":"k8s.pod.name","value":{"stringValue":"pod-1"}}]`), false,
			func(s []*trace.Span) bool {
				return s[0].Pod == "pod-1" && reflect.DeepEqual(s[0].Attrs, map[string]string{"n": "", "": ""})
			}},
		{"string for an attribute value", "otlp", splice(otlpSpanIn, `,"attributes":[{"key":"n","value":"7"}]`), true, nil},
		{"error status", "otlp", splice(otlpSpanIn, `,"status":{"message":"m","code":2},"kind":3`), false,
			func(s []*trace.Span) bool { return s[0].Error && s[0].Kind == trace.KindClient }},

		{"null element", "zipkin", `[null]`, false, func(s []*trace.Span) bool { return reflect.DeepEqual(s[0], &trace.Span{Kind: trace.KindInternal}) }},
		{"tags", "zipkin", splice(zipkinSpanIn, `,"kind":"SERVER","tags":{"error":"false","ERROR":"true","pod":"p","node":null,"error":"true","other":null}`), false,
			func(s []*trace.Span) bool {
				return s[0].Error && s[0].Pod == "p" && s[0].Node == "" && s[0].Kind == trace.KindServer
			}},
		{"non-string tag", "zipkin", splice(zipkinSpanIn, `,"tags":{"other":true}`), true, nil},

		{"processes before spans", "jaeger", `{"data":[{"processes":{"p1":{"serviceName":"early"}},"spans":[{"processID":"p1"}]},{"spans":[{"processID":"p1"}]}]}`, false,
			func(s []*trace.Span) bool { return len(s) == 2 && s[0].Service == "early" && s[1].Service == "" }},
		{"processes after spans", "jaeger", splice(jaegerSpanIn, ``), false, func(s []*trace.Span) bool { return s[0].Service == "svc" }},
		{"repeated process, last wins whole", "jaeger", `{"data":[{"spans":[{"processID":"p"}],"processes":{"p":{"serviceName":"a"},"p":null}}]}`, false,
			func(s []*trace.Span) bool { return s[0].Service == "" }},
		{"numeric trace ID on the trace", "jaeger", `{"data":[{"traceID":7}]}`, true, nil},
		{"references", "jaeger", splice(jaegerSpanIn, `,"references":[{"refType":"FOLLOWS_FROM","spanID":"f"},{"spanID":"parent","traceID":"t","refType":"CHILD_OF"},null]`), false,
			func(s []*trace.Span) bool { return s[0].ParentID == "parent" }},
		{"tags of every type", "jaeger", splice(jaegerSpanIn, `,"tags":[{"value":"server","key":"span.kind"},{"key":"span.kind","value":"nonsense"},{"key":"error","type":"bool","value":true},{"key":"error","value":false},{"key":"pod","value":7},{"key":"node","value":null},{"key":"x","value":{"a":[1.5e300]}},null]`), false,
			func(s []*trace.Span) bool {
				return s[0].Kind == trace.KindServer && s[0].Error && s[0].Pod == "" && s[0].Node == ""
			}},
		{"tag number outside float64", "jaeger", splice(jaegerSpanIn, `,"tags":[{"key":"x","value":[{"a":1e999}]}]`), true, nil},
		{"unknown number outside float64", "jaeger", splice(jaegerSpanIn, `,"x":1e999`), false, nil},
		{"numeric tag key", "jaeger", splice(jaegerSpanIn, `,"tags":[{"key":1}]`), true, nil},
	} {
		spans, err := checkAgainstOracle(t, tc.dialect, []byte(tc.in))
		if (err != nil) != tc.wantErr {
			t.Errorf("%s/%s: err = %v, want error %v", tc.dialect, tc.name, err, tc.wantErr)
		} else if tc.check != nil && !tc.check(spans) {
			t.Errorf("%s/%s: decoded %s", tc.dialect, tc.name, dump(spans))
		}
	}
}

// TestRepeatedContainerKey pins what the scanner does with the documents
// the differential check skips: each occurrence of the key adds its spans.
func TestRepeatedContainerKey(t *testing.T) {
	spans, err := DecodeZipkin([]byte(`[{"id":"a","tags":{"pod":"p"},"tags":null}]`))
	if err != nil || len(spans) != 1 || spans[0].Pod != "p" {
		t.Fatalf("decoded %s, err %v", dump(spans), err)
	}
	spans, err = DecodeSpans([]byte(`{"spans":[{"spanId":"a"}],"SPANS":[{"spanId":"b"}],"spans":null}`))
	if err != nil || len(spans) != 2 || spans[1].SpanID != "b" {
		t.Fatalf("decoded %s, err %v", dump(spans), err)
	}
	for _, in := range []string{`{"a":1,"A":2}`, `{"a":{"b":[],"c":[]}}`, `[{"a":[]},{"a":[]}]`, `{"a":null}`} {
		if repeatsContainerKey([]byte(in)) {
			t.Errorf("%s flagged as repeating a container key", in)
		}
	}
	for _, in := range []string{`{"a":1,"A":[]}`, `{"x":[{"a":null,"a":"s"}]}`, `{"a":{},"b":1,"a":{}}`} {
		if !repeatsContainerKey([]byte(in)) {
			t.Errorf("%s not flagged", in)
		}
	}
}

// benchPayload is the decode benchmark's and the allocation gate's input:
// eight Synthetic-64 traces in one payload.
func benchPayload(tb testing.TB) []*trace.Span {
	tb.Helper()
	s := sim.New(synth.Synthetic(64, 1), sim.DefaultOptions(1))
	var spans []*trace.Span
	for i := 0; i < 8; i++ {
		res, err := s.SimulateRequest(i, nil)
		if err != nil {
			tb.Fatal(err)
		}
		spans = append(spans, res.Trace.Spans...)
	}
	return spans
}

// TestDecodeSteadyStateAllocs: a span costs its own allocation, one string
// holding its span and parent IDs, and an amortised share of the result
// slice and the strings it interns; every other string is shared within
// the payload, and the interning table itself is pooled. It measures
// 2.33–2.39 on every dialect (3.34–3.41 with the IDs apart and a table
// per call).
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	spans := benchPayload(t)
	for _, d := range dialects {
		data, err := d.encode(spans)
		if err != nil {
			t.Fatal(err)
		}
		perSpan := testing.AllocsPerRun(20, func() {
			if _, err := d.decode(data); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(spans))
		if perSpan > 2.5 {
			t.Errorf("%s: %.2f allocs/span, want <= 2.5", d.name, perSpan)
		}
	}
}

// TestPooledTableCap: a scratch goes back to the pool emptied, so no
// string or span outlives its call through it, and one whose interning
// table grew past maxPooled does not go back at all, so a hostile body's
// table goes to the GC with its request.
func TestPooledTableCap(t *testing.T) {
	s := newScanner(nil)
	s.intern([]byte("kept for one call"))
	s.spans = append(s.spans, &trace.Span{})
	small := s.scratch
	s.release()
	if len(small.strs) != 0 || len(small.spans) != 0 {
		t.Fatalf("a released scratch holds %d strings and %d spans", len(small.strs), len(small.spans))
	}
	s = newScanner(nil)
	for i := 0; i <= maxPooled; i++ {
		s.intern([]byte(strconv.Itoa(i)))
	}
	big := s.scratch
	s.release()
	if len(big.strs) != maxPooled+1 {
		t.Fatalf("a table past the cap was cleared (%d entries left): it went back to the pool", len(big.strs))
	}
	for i := 0; i < 8; i++ {
		if scratches.Get().(*scratch) == big {
			t.Fatal("the pool handed out a table grown past its cap")
		}
	}
}

var decodeSink []*trace.Span

func BenchmarkDecode(b *testing.B) {
	spans := benchPayload(b)
	for _, d := range dialects {
		data, err := d.encode(spans)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			allocs := testing.AllocsPerRun(5, func() { decodeSink, _ = d.decode(data) })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decodeSink, err = d.decode(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/span")
			b.ReportMetric(allocs/float64(len(spans)), "allocs/span")
		})
	}
}

// TestEncodeJaegerDeterministic: traces appear in the order their first
// span does, so the same spans encode to the same bytes.
func TestEncodeJaegerDeterministic(t *testing.T) {
	var spans []*trace.Span
	for i, id := range []string{"c", "a", "d", "b", "e", "f"} {
		spans = append(spans,
			&trace.Span{TraceID: id, SpanID: "root", Service: "front", Kind: trace.KindServer, End: int64(i)},
			&trace.Span{TraceID: id, SpanID: "child", ParentID: "root", Service: "back", Kind: trace.KindClient})
	}
	first, err := EncodeJaeger(spans)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if again, _ := EncodeJaeger(spans); !bytes.Equal(first, again) {
			t.Fatal("two encodings of the same spans differ")
		}
	}
	back, err := DecodeJaeger(first)
	if err != nil || len(back) != len(spans) {
		t.Fatalf("decoded %d spans, err %v", len(back), err)
	}
	for i, sp := range back {
		if sp.TraceID != spans[i].TraceID || sp.SpanID != spans[i].SpanID {
			t.Fatalf("span %d is %s/%s, want %s/%s", i, sp.TraceID, sp.SpanID, spans[i].TraceID, spans[i].SpanID)
		}
	}
}
