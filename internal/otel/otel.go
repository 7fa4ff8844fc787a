// Package otel provides wire codecs between the canonical span model and
// the three trace protocols the paper's collectors accept (§4): an
// OpenTelemetry-style (OTLP/JSON) format, a Zipkin-style JSON array, and a
// Jaeger-style JSON document. The collector multiplexes these into the
// storage engine; the model server reads the canonical {"spans":[…]} body
// of /score through the fourth decoder, DecodeSpans.
//
// The encoders marshal mirror structs with encoding/json. The decoders do
// not: each is a field-mapping walk over one strict single-pass scanner
// (scan.go) that builds *trace.Span directly and shares the strings a
// payload repeats (trace ID, service, operation, pod, node, attribute keys
// and values) through a table whose contents live for one call (its
// storage is pooled). Nothing they return points into their input, so
// both servers decode out of one pooled body buffer (ReadBody). They
// accept and reject what json.Unmarshal into those mirror structs does,
// with the same result: unknown fields are validated and skipped, a
// repeated key's last value wins, null leaves a field as it was, keys
// match a field exactly or else case-insensitively, strings are unescaped
// in full with U+FFFD for an unpaired surrogate or an invalid UTF-8 byte,
// nesting deeper than 10000 is an error, and a value of the wrong JSON
// type, a number that does not fit its integer field, malformed JSON or
// bytes after the top-level value reject the whole payload. The
// reflection decoders live on in the tests as the oracle the fuzz targets compare against. Three deliberate
// divergences, each excluded by name in checkAgainstOracle:
//
//   - A key repeated within one object with an array, an object or a null
//     among its values. encoding/json decodes the repeat into what the
//     first left behind (array elements merge index by index, a null
//     empties the field); here each occurrence is one more run of elements
//     or fields. No encoder emits such a document.
//   - DecodeSpans rejects a null in place of a span. encoding/json yields a
//     nil *trace.Span, which the server would go on to dereference.
//   - A payload without spans decodes to a nil slice, never an empty one.
package otel

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// --- OTLP-style representation -------------------------------------------

// otlpDoc mirrors the resourceSpans nesting of OTLP/JSON.
type otlpDoc struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpScopeSpans struct {
	Spans []otlpSpan `json:"spans"`
}

type otlpKV struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue string `json:"stringValue"`
}

type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Status            otlpStatus `json:"status"`
	Attributes        []otlpKV   `json:"attributes,omitempty"`
}

type otlpStatus struct {
	Code int `json:"code"` // 0 unset, 1 ok, 2 error
}

// OTLP span-kind enum values.
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	otlpKindClient   = 3
	otlpKindProducer = 4
	otlpKindConsumer = 5
)

func kindToOTLP(k trace.Kind) int {
	switch k {
	case trace.KindServer:
		return otlpKindServer
	case trace.KindClient:
		return otlpKindClient
	case trace.KindProducer:
		return otlpKindProducer
	case trace.KindConsumer:
		return otlpKindConsumer
	default:
		return otlpKindInternal
	}
}

func kindFromOTLP(k int) trace.Kind {
	switch k {
	case otlpKindServer:
		return trace.KindServer
	case otlpKindClient:
		return trace.KindClient
	case otlpKindProducer:
		return trace.KindProducer
	case otlpKindConsumer:
		return trace.KindConsumer
	default:
		return trace.KindInternal
	}
}

// EncodeOTLP renders spans as an OTLP-style JSON document, grouping spans
// by service into resourceSpans blocks.
func EncodeOTLP(spans []*trace.Span) ([]byte, error) {
	byService := map[string][]*trace.Span{}
	var order []string
	for _, s := range spans {
		if _, ok := byService[s.Service]; !ok {
			order = append(order, s.Service)
		}
		byService[s.Service] = append(byService[s.Service], s)
	}
	var doc otlpDoc
	for _, svc := range order {
		rs := otlpResourceSpans{
			Resource: otlpResource{Attributes: []otlpKV{
				{Key: "service.name", Value: otlpValue{StringValue: svc}},
			}},
			ScopeSpans: []otlpScopeSpans{{}},
		}
		for _, s := range byService[svc] {
			status := otlpStatus{Code: 1}
			if s.Error {
				status.Code = 2
			}
			o := otlpSpan{
				TraceID:           s.TraceID,
				SpanID:            s.SpanID,
				ParentSpanID:      s.ParentID,
				Name:              s.Name,
				Kind:              kindToOTLP(s.Kind),
				StartTimeUnixNano: strconv.FormatInt(s.Start*1000, 10),
				EndTimeUnixNano:   strconv.FormatInt(s.End*1000, 10),
				Status:            status,
			}
			if s.Pod != "" {
				o.Attributes = append(o.Attributes, otlpKV{Key: "k8s.pod.name", Value: otlpValue{StringValue: s.Pod}})
			}
			if s.Node != "" {
				o.Attributes = append(o.Attributes, otlpKV{Key: "k8s.node.name", Value: otlpValue{StringValue: s.Node}})
			}
			if len(s.Attrs) > 0 {
				keys := make([]string, 0, len(s.Attrs))
				for k := range s.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					o.Attributes = append(o.Attributes, otlpKV{Key: k, Value: otlpValue{StringValue: s.Attrs[k]}})
				}
			}
			rs.ScopeSpans[0].Spans = append(rs.ScopeSpans[0].Spans, o)
		}
		doc.ResourceSpans = append(doc.ResourceSpans, rs)
	}
	return json.Marshal(doc)
}

// DecodeOTLP parses an OTLP-style JSON document into canonical spans.
func DecodeOTLP(data []byte) ([]*trace.Span, error) {
	s := newScanner(data)
	defer s.release()
	for s.open('{'); s.only("resourceSpans"); {
		for s.open('['); s.more(']'); {
			s.otlpResourceSpans()
		}
	}
	if err := s.end(); err != nil {
		return nil, fmt.Errorf("otel: parsing OTLP document: %w", err)
	}
	return s.result(), nil
}

// otlpResourceSpans reads the spans of one resourceSpans block. The
// resource may follow the spans it names, so the service is set at the end.
func (s *scanner) otlpResourceSpans() {
	mark, service := len(s.spans), ""
	s.fields(otlpResourceSpansKeys, func(k []byte) bool {
		switch string(k) {
		case "resource":
			for s.open('{'); s.only("attributes"); {
				for s.open('['); s.more(']'); {
					if k, v := s.otlpKV(); k == "service.name" {
						service = v
					}
				}
			}
		case "scopeSpans":
			for s.open('['); s.more(']'); {
				for s.open('{'); s.only("spans"); {
					for s.open('['); s.more(']'); {
						s.spans = append(s.spans, s.otlpSpan())
					}
				}
			}
		default:
			return false
		}
		return true
	})
	for _, sp := range s.spans[mark:] {
		sp.Service = service
	}
}

// The keys fields folds a key onto, per object: the JSON fields of the
// mirror struct the oracle decodes that object into, which the object's
// switch names as its cases.
var (
	otlpResourceSpansKeys = jsonFields(otlpResourceSpans{})
	otlpSpanKeys          = jsonFields(otlpSpan{})
	otlpKVKeys            = jsonFields(otlpKV{})
	zipkinSpanKeys        = jsonFields(zipkinSpan{})
	jaegerTraceKeys       = jsonFields(jaegerTrace{})
	jaegerSpanKeys        = jsonFields(jaegerSpan{})
	jaegerRefKeys         = jsonFields(jaegerRef{})
	jaegerTagKeys         = jsonFields(jaegerTag{})
	spansKeys             = jsonFields(trace.Span{})
)

// jsonFields returns the JSON names of a struct's fields.
func jsonFields(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}

func (s *scanner) otlpSpan() *trace.Span {
	sp := &trace.Span{}
	var kind, code int64
	var hasStart, hasEnd bool
	s.newSpan()
	s.fields(otlpSpanKeys, func(k []byte) bool {
		switch string(k) {
		case "traceId":
			s.internTo(&sp.TraceID)
		case "spanId":
			s.idTo(&s.spanID)
		case "parentSpanId":
			s.idTo(&s.parentID)
		case "name":
			s.internTo(&sp.Name)
		case "kind":
			s.intTo(&kind)
		case "startTimeUnixNano":
			s.nanosTo(&sp.Start, &hasStart)
		case "endTimeUnixNano":
			s.nanosTo(&sp.End, &hasEnd)
		case "status":
			for s.open('{'); s.only("code"); {
				s.intTo(&code)
			}
		case "attributes":
			for s.open('['); s.more(']'); {
				switch k, v := s.otlpKV(); k {
				case "k8s.pod.name":
					sp.Pod = v
				case "k8s.node.name":
					sp.Node = v
				default:
					if sp.Attrs == nil {
						sp.Attrs = map[string]string{}
					}
					sp.Attrs[k] = v
				}
			}
		default:
			return false
		}
		return true
	})
	if !hasStart || !hasEnd {
		s.fail("span without a decimal start and end time")
	}
	sp.SpanID, sp.ParentID = s.ids()
	sp.Kind, sp.Error = kindFromOTLP(int(kind)), code == 2
	return sp
}

// nanosTo reads a decimal string of nanoseconds into microseconds; ok tells
// whether the last such string seen parsed, so a repeated key can mend it.
func (s *scanner) nanosTo(us *int64, ok *bool) {
	if b, isStr := s.text(); isStr {
		ns, err := strconv.ParseInt(string(b), 10, 64)
		*us, *ok = ns/1000, err == nil
	}
}

// otlpKV reads one {"key":…,"value":{"stringValue":…}} attribute.
func (s *scanner) otlpKV() (k, v string) {
	s.fields(otlpKVKeys, func(key []byte) bool {
		switch string(key) {
		case "key":
			s.internTo(&k)
		case "value":
			for s.open('{'); s.only("stringValue"); {
				s.internTo(&v)
			}
		default:
			return false
		}
		return true
	})
	return k, v
}

// --- Zipkin-style representation -----------------------------------------

type zipkinSpan struct {
	TraceID       string            `json:"traceId"`
	ID            string            `json:"id"`
	ParentID      string            `json:"parentId,omitempty"`
	Name          string            `json:"name"`
	Kind          string            `json:"kind,omitempty"`
	Timestamp     int64             `json:"timestamp"` // µs
	Duration      int64             `json:"duration"`  // µs
	LocalEndpoint zipkinEndpoint    `json:"localEndpoint"`
	Tags          map[string]string `json:"tags,omitempty"`
}

type zipkinEndpoint struct {
	ServiceName string `json:"serviceName"`
}

func kindToZipkin(k trace.Kind) string {
	switch k {
	case trace.KindServer:
		return "SERVER"
	case trace.KindClient:
		return "CLIENT"
	case trace.KindProducer:
		return "PRODUCER"
	case trace.KindConsumer:
		return "CONSUMER"
	default:
		return ""
	}
}

func kindFromZipkin(k string) trace.Kind {
	switch k {
	case "SERVER":
		return trace.KindServer
	case "CLIENT":
		return trace.KindClient
	case "PRODUCER":
		return trace.KindProducer
	case "CONSUMER":
		return trace.KindConsumer
	default:
		return trace.KindInternal
	}
}

// EncodeZipkin renders spans as a Zipkin-style JSON array.
func EncodeZipkin(spans []*trace.Span) ([]byte, error) {
	out := make([]zipkinSpan, 0, len(spans))
	for _, s := range spans {
		z := zipkinSpan{
			TraceID:       s.TraceID,
			ID:            s.SpanID,
			ParentID:      s.ParentID,
			Name:          s.Name,
			Kind:          kindToZipkin(s.Kind),
			Timestamp:     s.Start,
			Duration:      s.Duration(),
			LocalEndpoint: zipkinEndpoint{ServiceName: s.Service},
		}
		tags := map[string]string{}
		if s.Error {
			tags["error"] = "true"
		}
		if s.Pod != "" {
			tags["pod"] = s.Pod
		}
		if s.Node != "" {
			tags["node"] = s.Node
		}
		if len(tags) > 0 {
			z.Tags = tags
		}
		out = append(out, z)
	}
	return json.Marshal(out)
}

// DecodeZipkin parses a Zipkin-style JSON array.
func DecodeZipkin(data []byte) ([]*trace.Span, error) {
	s := newScanner(data)
	defer s.release()
	for s.open('['); s.more(']'); {
		sp := &trace.Span{}
		var kind string
		var duration int64
		s.newSpan()
		s.fields(zipkinSpanKeys, func(k []byte) bool {
			switch string(k) {
			case "traceId":
				s.internTo(&sp.TraceID)
			case "id":
				s.idTo(&s.spanID)
			case "parentId":
				s.idTo(&s.parentID)
			case "name":
				s.internTo(&sp.Name)
			case "kind":
				s.internTo(&kind)
			case "timestamp":
				s.intTo(&sp.Start)
			case "duration":
				s.intTo(&duration)
			case "localEndpoint":
				for s.open('{'); s.only("serviceName"); {
					s.internTo(&sp.Service)
				}
			case "tags":
				// A map, not a struct: keys match exactly and a null value
				// stores "".
				for s.open('{'); s.more('}'); {
					switch string(s.rawKey()) {
					case "error":
						v, _ := s.text()
						sp.Error = string(v) == "true"
					case "pod":
						sp.Pod = ""
						s.internTo(&sp.Pod)
					case "node":
						sp.Node = ""
						s.internTo(&sp.Node)
					default:
						s.text()
					}
				}
			default:
				return false
			}
			return true
		})
		sp.SpanID, sp.ParentID = s.ids()
		sp.Kind, sp.End = kindFromZipkin(kind), sp.Start+duration
		s.spans = append(s.spans, sp)
	}
	if err := s.end(); err != nil {
		return nil, fmt.Errorf("otel: parsing Zipkin array: %w", err)
	}
	return s.result(), nil
}

// --- Jaeger-style representation -----------------------------------------

type jaegerDoc struct {
	Data []jaegerTrace `json:"data"`
}

type jaegerTrace struct {
	TraceID   string                   `json:"traceID"`
	Spans     []jaegerSpan             `json:"spans"`
	Processes map[string]jaegerProcess `json:"processes"`
}

type jaegerSpan struct {
	TraceID       string      `json:"traceID"`
	SpanID        string      `json:"spanID"`
	OperationName string      `json:"operationName"`
	References    []jaegerRef `json:"references,omitempty"`
	StartTime     int64       `json:"startTime"` // µs
	Duration      int64       `json:"duration"`  // µs
	Tags          []jaegerTag `json:"tags,omitempty"`
	ProcessID     string      `json:"processID"`
}

type jaegerRef struct {
	RefType string `json:"refType"`
	TraceID string `json:"traceID"`
	SpanID  string `json:"spanID"`
}

type jaegerTag struct {
	Key   string      `json:"key"`
	Type  string      `json:"type"`
	Value interface{} `json:"value"`
}

type jaegerProcess struct {
	ServiceName string `json:"serviceName"`
}

// EncodeJaeger renders spans grouped by trace as a Jaeger-style document,
// the traces in the order their first spans appear.
func EncodeJaeger(spans []*trace.Span) ([]byte, error) {
	groups := make(map[string][]*trace.Span)
	for _, s := range spans {
		groups[s.TraceID] = append(groups[s.TraceID], s)
	}
	var doc jaegerDoc
	for _, first := range spans {
		tid := first.TraceID
		group, ok := groups[tid]
		if !ok {
			continue
		}
		delete(groups, tid)
		jt := jaegerTrace{TraceID: tid, Processes: map[string]jaegerProcess{}}
		procOf := map[string]string{}
		for _, s := range group {
			pid, ok := procOf[s.Service]
			if !ok {
				pid = fmt.Sprintf("p%d", len(procOf)+1)
				procOf[s.Service] = pid
				jt.Processes[pid] = jaegerProcess{ServiceName: s.Service}
			}
			js := jaegerSpan{
				TraceID:       s.TraceID,
				SpanID:        s.SpanID,
				OperationName: s.Name,
				StartTime:     s.Start,
				Duration:      s.Duration(),
				ProcessID:     pid,
				Tags: []jaegerTag{
					{Key: "span.kind", Type: "string", Value: string(s.Kind)},
				},
			}
			if s.ParentID != "" {
				js.References = []jaegerRef{{RefType: "CHILD_OF", TraceID: s.TraceID, SpanID: s.ParentID}}
			}
			if s.Error {
				js.Tags = append(js.Tags, jaegerTag{Key: "error", Type: "bool", Value: true})
			}
			if s.Pod != "" {
				js.Tags = append(js.Tags, jaegerTag{Key: "pod", Type: "string", Value: s.Pod})
			}
			if s.Node != "" {
				js.Tags = append(js.Tags, jaegerTag{Key: "node", Type: "string", Value: s.Node})
			}
			jt.Spans = append(jt.Spans, js)
		}
		doc.Data = append(doc.Data, jt)
	}
	return json.Marshal(doc)
}

// DecodeJaeger parses a Jaeger-style document.
func DecodeJaeger(data []byte) ([]*trace.Span, error) {
	s := newScanner(data)
	defer s.release()
	for s.open('{'); s.only("data"); {
		for s.open('['); s.more(']'); {
			mark := len(s.spans)
			clear(s.procs) // process ID → service of the trace being read
			s.fields(jaegerTraceKeys, func(k []byte) bool {
				switch string(k) {
				case "traceID":
					s.text()
				case "spans":
					for s.open('['); s.more(']'); {
						s.spans = append(s.spans, s.jaegerSpan())
					}
				case "processes":
					for s.open('{'); s.more('}'); {
						pid, service := s.intern(s.rawKey()), ""
						for s.open('{'); s.only("serviceName"); {
							s.internTo(&service)
						}
						s.procs[pid] = service
					}
				default:
					return false
				}
				return true
			})
			// processes may follow spans: jaegerSpan left the process ID in
			// Service for this lookup.
			for _, sp := range s.spans[mark:] {
				sp.Service = s.procs[sp.Service]
			}
		}
	}
	if err := s.end(); err != nil {
		return nil, fmt.Errorf("otel: parsing Jaeger document: %w", err)
	}
	return s.result(), nil
}

// jaegerSpan reads one span, leaving its process ID in Service.
func (s *scanner) jaegerSpan() *trace.Span {
	sp := &trace.Span{Kind: trace.KindInternal}
	var duration int64
	s.newSpan()
	s.fields(jaegerSpanKeys, func(k []byte) bool {
		switch string(k) {
		case "traceID":
			s.internTo(&sp.TraceID)
		case "spanID":
			s.idTo(&s.spanID)
		case "operationName":
			s.internTo(&sp.Name)
		case "references":
			for s.open('['); s.more(']'); {
				childOf := false
				s.refID = s.refID[:0]
				s.fields(jaegerRefKeys, func(k []byte) bool {
					switch string(k) {
					case "refType":
						if b, ok := s.text(); ok {
							childOf = string(b) == "CHILD_OF"
						}
					case "traceID":
						s.text()
					case "spanID":
						s.idTo(&s.refID)
					default:
						return false
					}
					return true
				})
				if childOf {
					s.parentID = append(s.parentID[:0], s.refID...)
				}
			}
		case "startTime":
			s.intTo(&sp.Start)
		case "duration":
			s.intTo(&duration)
		case "tags":
			for s.open('['); s.more(']'); {
				s.jaegerTag(sp)
			}
		case "processID":
			s.internTo(&sp.Service)
		default:
			return false
		}
		return true
	})
	sp.SpanID, sp.ParentID = s.ids()
	sp.End = sp.Start + duration
	return sp
}

// jaegerTag applies one {"key":…,"type":…,"value":…} tag to sp. The value
// is untyped: only a string or a bool is ever used, anything else is just
// validated.
func (s *scanner) jaegerTag(sp *trace.Span) {
	var key, str string
	var isStr, isTrue bool
	s.fields(jaegerTagKeys, func(k []byte) bool {
		switch string(k) {
		case "key":
			s.internTo(&key)
		case "type":
			s.text()
		case "value":
			s.ws()
			isStr, isTrue = s.peek() == '"', false
			switch {
			case isStr:
				s.internTo(&str)
			case s.peek() == 't':
				s.boolTo(&isTrue)
			default:
				s.floats = true
				s.skip()
				s.floats = false
			}
		default:
			return false
		}
		return true
	})
	switch {
	case key == "error" && isTrue:
		sp.Error = true
	case !isStr: // the other tags count only as strings
	case key == "span.kind" && trace.Kind(str).Valid():
		sp.Kind = trace.Kind(str)
	case key == "pod":
		sp.Pod = str
	case key == "node":
		sp.Node = str
	}
}

// --- Canonical representation --------------------------------------------

// DecodeSpans parses the canonical {"spans":[…]} body of the model server's
// /score: trace.Span in its own JSON form. The spans copy every string out
// of data, so the caller may reuse data once DecodeSpans returns.
func DecodeSpans(data []byte) ([]*trace.Span, error) {
	s := newScanner(data)
	defer s.release()
	for s.open('{'); s.only("spans"); {
		for s.open('['); s.more(']'); {
			if s.null() {
				s.fail("null in place of a span")
			}
			sp := &trace.Span{}
			s.newSpan()
			s.fields(spansKeys, func(k []byte) bool {
				switch string(k) {
				case "traceId":
					s.internTo(&sp.TraceID)
				case "spanId":
					s.idTo(&s.spanID)
				case "parentSpanId":
					s.idTo(&s.parentID)
				case "service":
					s.internTo(&sp.Service)
				case "name":
					s.internTo(&sp.Name)
				case "kind":
					s.internTo((*string)(&sp.Kind))
				case "start":
					s.intTo(&sp.Start)
				case "end":
					s.intTo(&sp.End)
				case "error":
					s.boolTo(&sp.Error)
				case "pod":
					s.internTo(&sp.Pod)
				case "node":
					s.internTo(&sp.Node)
				case "attrs":
					// null leaves the map nil; {} makes an empty one.
					if s.null() {
						return true
					}
					if sp.Attrs == nil {
						sp.Attrs = map[string]string{}
					}
					for s.open('{'); s.more('}'); {
						k, v := s.intern(s.rawKey()), ""
						s.strTo(&v)
						sp.Attrs[k] = v
					}
				default:
					return false
				}
				return true
			})
			sp.SpanID, sp.ParentID = s.ids()
			s.spans = append(s.spans, sp)
		}
	}
	if err := s.end(); err != nil {
		return nil, fmt.Errorf("otel: parsing spans body: %w", err)
	}
	return s.result(), nil
}
