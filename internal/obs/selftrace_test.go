package obs_test

// Black-box request-tracer tests: package obs deliberately does not import
// the wire codecs, so the OTLP round-trip check (the path a ring-resident
// request trace takes when it re-ingests through the collector) lives in an
// external test package that pulls in internal/otel alongside obs.

import (
	"reflect"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// pipelineTracer records a small but representative stage tree with a
// deterministic clock: analyze → (featurize, cluster → pairwise, localize).
func pipelineTracer() *obs.Tracer {
	tr := obs.NewTracer("sleuth.pipeline", obs.SpanContext{TraceID: "selftrace-test"})
	clock := int64(1_000_000)
	tr.SetClock(func() int64 { clock += 50; return clock })
	root := tr.Start("analyze", nil)
	feat := root.Child("featurize")
	feat.Annotate("traces", "12")
	feat.Annotate("dmax", "3")
	feat.End()
	cl := root.Child("cluster")
	pw := cl.Child("pairwise")
	pw.End()
	cl.End()
	loc := root.Child("localize")
	loc.SetError(true)
	loc.End()
	root.End()
	return tr
}

func TestSelfTraceOTLPRoundTrip(t *testing.T) {
	tr := pipelineTracer()
	orig := tr.Spans()
	if len(orig) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(orig))
	}

	data, err := otel.EncodeOTLP(orig)
	if err != nil {
		t.Fatalf("EncodeOTLP: %v", err)
	}
	decoded, err := otel.DecodeOTLP(data)
	if err != nil {
		t.Fatalf("DecodeOTLP: %v", err)
	}
	if len(decoded) != len(orig) {
		t.Fatalf("decoded %d spans, want %d", len(decoded), len(orig))
	}
	// The acceptance bar: the decoded spans are identical to the recorded
	// ones, field for field, annotations included.
	for i := range orig {
		if !reflect.DeepEqual(orig[i], decoded[i]) {
			t.Errorf("span %d did not round-trip:\n  orig:    %+v\n  decoded: %+v", i, orig[i], decoded[i])
		}
	}

	// The round-tripped spans assemble into the same tree the tracer sees.
	want, err := trace.Assemble(tr.Spans())
	if err != nil {
		t.Fatalf("Assemble(Spans()): %v", err)
	}
	got, err := trace.Assemble(decoded)
	if err != nil {
		t.Fatalf("Assemble(decoded): %v", err)
	}
	if !reflect.DeepEqual(treeShape(want), treeShape(got)) {
		t.Errorf("assembled trees differ:\nwant %v\ngot  %v", treeShape(want), treeShape(got))
	}
}

// treeShape renders a trace as nested name lists for structural comparison.
func treeShape(tr *trace.Trace) []any {
	var walk func(i int) []any
	walk = func(i int) []any {
		node := []any{tr.Spans[i].Name, tr.Spans[i].Duration(), tr.Spans[i].Error}
		for _, c := range tr.Children(i) {
			node = append(node, walk(c))
		}
		return node
	}
	var roots []any
	for _, r := range tr.Roots() {
		roots = append(roots, walk(r))
	}
	return roots
}

func TestSelfTraceStructure(t *testing.T) {
	tr := pipelineTracer()
	trc, err := trace.Assemble(tr.Spans())
	if err != nil {
		t.Fatalf("Assemble(Spans()): %v", err)
	}
	roots := trc.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	root := trc.Spans[roots[0]]
	if root.Name != "analyze" {
		t.Errorf("root = %q, want analyze", root.Name)
	}
	kids := trc.Children(roots[0])
	if len(kids) != 3 {
		t.Fatalf("root has %d children, want 3", len(kids))
	}
	names := []string{}
	for _, k := range kids {
		names = append(names, trc.Spans[k].Name)
	}
	if !reflect.DeepEqual(names, []string{"featurize", "cluster", "localize"}) {
		t.Errorf("children = %v", names)
	}
	for _, sp := range trc.Spans {
		if sp.Kind != trace.KindInternal {
			t.Errorf("span %s kind = %q, want internal", sp.Name, sp.Kind)
		}
		if sp.Service != "sleuth.pipeline" {
			t.Errorf("span %s service = %q", sp.Name, sp.Service)
		}
		if sp.End <= sp.Start {
			t.Errorf("span %s has End %d <= Start %d", sp.Name, sp.End, sp.Start)
		}
	}
}

func TestSpansClosesUnendedCopiesOnly(t *testing.T) {
	tr := obs.NewTracer("sleuth.pipeline", obs.SpanContext{TraceID: "open-span"})
	clock := int64(100)
	tr.SetClock(func() int64 { clock += 10; return clock })
	root := tr.Start("train", nil)
	_ = root.Child("featurize") // never ended

	spans := tr.Spans()
	for _, sp := range spans {
		if sp.End == 0 {
			t.Errorf("Spans() returned open span %s", sp.Name)
		}
	}
	if _, err := trace.Assemble(spans); err != nil {
		t.Errorf("mid-flight snapshot does not assemble: %v", err)
	}
	// The live span is still open; ending it later must stick.
	root.End()
	final := tr.Spans()
	if final[0].End <= final[0].Start {
		t.Errorf("root span end %d not after start %d", final[0].End, final[0].Start)
	}
}

func TestSpansAreCopies(t *testing.T) {
	tr := pipelineTracer()
	a := tr.Spans()
	a[0].Name = "mutated"
	a[1].Attrs["traces"] = "999"
	b := tr.Spans()
	if b[0].Name == "mutated" {
		t.Error("Spans() aliases the tracer's span structs")
	}
	if b[1].Attrs["traces"] == "999" {
		t.Error("Spans() aliases attribute maps")
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *obs.Tracer
	tr.SetClock(func() int64 { return 0 })
	sp := tr.Start("x", nil)
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	child := sp.Child("y")
	child.End()
	child.SetError(true)
	child.Annotate("k", "v")
	sp.End()
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer Spans() = %v", got)
	}
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("nil tracer holds %d spans", n)
	}
	if _, err := trace.Assemble(tr.Spans()); err == nil {
		t.Error("nil tracer's spans assembled without error")
	}
}

func TestTracerGeneratedID(t *testing.T) {
	tr := obs.NewTracer("sleuth.pipeline", obs.SpanContext{})
	sp := tr.Start("stage", nil)
	sp.End()
	spans := tr.Spans()
	if spans[0].TraceID == "" {
		t.Error("generated trace ID is empty")
	}
}
