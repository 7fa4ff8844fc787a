package otel

import (
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// The reflection decoders the scanner replaced, kept as the reference the
// differential tests and fuzz targets hold it to: encoding/json into the
// mirror structs the encoders still use, then the field mapping.

// oracleOTLP parses an OTLP-style JSON document into canonical spans.
func oracleOTLP(data []byte) ([]*trace.Span, error) {
	var doc otlpDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("otel: parsing OTLP document: %w", err)
	}
	var out []*trace.Span
	for _, rs := range doc.ResourceSpans {
		service := ""
		for _, kv := range rs.Resource.Attributes {
			if kv.Key == "service.name" {
				service = kv.Value.StringValue
			}
		}
		for _, ss := range rs.ScopeSpans {
			for _, o := range ss.Spans {
				startNano, err := strconv.ParseInt(o.StartTimeUnixNano, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("otel: bad start time %q: %w", o.StartTimeUnixNano, err)
				}
				endNano, err := strconv.ParseInt(o.EndTimeUnixNano, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("otel: bad end time %q: %w", o.EndTimeUnixNano, err)
				}
				sp := &trace.Span{
					TraceID:  o.TraceID,
					SpanID:   o.SpanID,
					ParentID: o.ParentSpanID,
					Service:  service,
					Name:     o.Name,
					Kind:     kindFromOTLP(o.Kind),
					Start:    startNano / 1000,
					End:      endNano / 1000,
					Error:    o.Status.Code == 2,
				}
				for _, kv := range o.Attributes {
					switch kv.Key {
					case "k8s.pod.name":
						sp.Pod = kv.Value.StringValue
					case "k8s.node.name":
						sp.Node = kv.Value.StringValue
					default:
						if sp.Attrs == nil {
							sp.Attrs = map[string]string{}
						}
						sp.Attrs[kv.Key] = kv.Value.StringValue
					}
				}
				out = append(out, sp)
			}
		}
	}
	return out, nil
}

// oracleZipkin parses a Zipkin-style JSON array.
func oracleZipkin(data []byte) ([]*trace.Span, error) {
	var zs []zipkinSpan
	if err := json.Unmarshal(data, &zs); err != nil {
		return nil, fmt.Errorf("otel: parsing Zipkin array: %w", err)
	}
	out := make([]*trace.Span, 0, len(zs))
	for _, z := range zs {
		out = append(out, &trace.Span{
			TraceID:  z.TraceID,
			SpanID:   z.ID,
			ParentID: z.ParentID,
			Service:  z.LocalEndpoint.ServiceName,
			Name:     z.Name,
			Kind:     kindFromZipkin(z.Kind),
			Start:    z.Timestamp,
			End:      z.Timestamp + z.Duration,
			Error:    z.Tags["error"] == "true",
			Pod:      z.Tags["pod"],
			Node:     z.Tags["node"],
		})
	}
	return out, nil
}

// oracleJaeger parses a Jaeger-style document.
func oracleJaeger(data []byte) ([]*trace.Span, error) {
	var doc jaegerDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("otel: parsing Jaeger document: %w", err)
	}
	var out []*trace.Span
	for _, jt := range doc.Data {
		for _, js := range jt.Spans {
			sp := &trace.Span{
				TraceID: js.TraceID,
				SpanID:  js.SpanID,
				Name:    js.OperationName,
				Kind:    trace.KindInternal,
				Start:   js.StartTime,
				End:     js.StartTime + js.Duration,
				Service: jt.Processes[js.ProcessID].ServiceName,
			}
			for _, ref := range js.References {
				if ref.RefType == "CHILD_OF" {
					sp.ParentID = ref.SpanID
				}
			}
			for _, tag := range js.Tags {
				switch tag.Key {
				case "span.kind":
					if s, ok := tag.Value.(string); ok {
						k := trace.Kind(s)
						if k.Valid() {
							sp.Kind = k
						}
					}
				case "error":
					if b, ok := tag.Value.(bool); ok && b {
						sp.Error = true
					}
				case "pod":
					if s, ok := tag.Value.(string); ok {
						sp.Pod = s
					}
				case "node":
					if s, ok := tag.Value.(string); ok {
						sp.Node = s
					}
				}
			}
			out = append(out, sp)
		}
	}
	return out, nil
}

// oracleSpans parses the canonical {"spans":[…]} body.
func oracleSpans(data []byte) ([]*trace.Span, error) {
	var body struct {
		Spans []*trace.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, fmt.Errorf("otel: parsing spans body: %w", err)
	}
	return body.Spans, nil
}
