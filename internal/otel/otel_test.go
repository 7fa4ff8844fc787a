package otel

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func sampleSpans(t testing.TB) []*trace.Span {
	t.Helper()
	s := sim.New(synth.Synthetic(16, 1), sim.DefaultOptions(1))
	res, err := s.SimulateRequest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.Spans
}

func spansEquivalent(t *testing.T, a, b []*trace.Span) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	byID := map[string]*trace.Span{}
	for _, s := range a {
		byID[s.SpanID] = s
	}
	for _, s := range b {
		o, ok := byID[s.SpanID]
		if !ok {
			t.Fatalf("span %s lost", s.SpanID)
		}
		if o.TraceID != s.TraceID || o.ParentID != s.ParentID ||
			o.Service != s.Service || o.Name != s.Name || o.Kind != s.Kind ||
			o.Start != s.Start || o.End != s.End || o.Error != s.Error ||
			o.Pod != s.Pod || o.Node != s.Node {
			t.Fatalf("span %s changed:\n  a=%+v\n  b=%+v", s.SpanID, o, s)
		}
	}
}

func TestOTLPRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOTLP(data)
	if err != nil {
		t.Fatal(err)
	}
	spansEquivalent(t, spans, back)
}

func TestZipkinRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeZipkin(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeZipkin(data)
	if err != nil {
		t.Fatal(err)
	}
	spansEquivalent(t, spans, back)
}

func TestJaegerRoundTrip(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeJaeger(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJaeger(data)
	if err != nil {
		t.Fatal(err)
	}
	spansEquivalent(t, spans, back)
}

func TestDecodersRejectGarbage(t *testing.T) {
	for name, dec := range map[string]func([]byte) ([]*trace.Span, error){
		"otlp":   DecodeOTLP,
		"zipkin": DecodeZipkin,
		"jaeger": DecodeJaeger,
	} {
		if _, err := dec([]byte("{not json")); err == nil {
			t.Errorf("%s accepted garbage", name)
		}
	}
}

func TestDecodedSpansAssemble(t *testing.T) {
	spans := sampleSpans(t)
	data, err := EncodeOTLP(spans)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOTLP(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Assemble(back)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(spans) {
		t.Fatalf("assembled %d spans, want %d", tr.Len(), len(spans))
	}
}

func TestKindMappings(t *testing.T) {
	kinds := []trace.Kind{trace.KindServer, trace.KindClient, trace.KindProducer, trace.KindConsumer, trace.KindInternal}
	for _, k := range kinds {
		if got := kindFromOTLP(kindToOTLP(k)); got != k {
			t.Errorf("OTLP kind %s -> %s", k, got)
		}
		if got := kindFromZipkin(kindToZipkin(k)); got != k {
			t.Errorf("Zipkin kind %s -> %s", k, got)
		}
	}
	if kindFromOTLP(99) != trace.KindInternal {
		t.Error("unknown OTLP kind not internal")
	}
	if kindFromZipkin("WEIRD") != trace.KindInternal {
		t.Error("unknown Zipkin kind not internal")
	}
}

func TestOTLPBadTimestamps(t *testing.T) {
	doc := `{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"spans":[
		{"traceId":"t","spanId":"s","name":"x","kind":2,
		 "startTimeUnixNano":"oops","endTimeUnixNano":"1000","status":{"code":1}}]}]}]}`
	if _, err := DecodeOTLP([]byte(doc)); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}
