package trace

import (
	"errors"
	"slices"
	"strconv"
	"testing"
)

// FuzzAssemble holds Assemble and AssembleAll to the reference assembly
// (reference_test.go) on arbitrary span lists: equal traces — span order,
// every accessor — equal error kinds, equal skip counts, and the same
// in-place order left in Assemble's argument. The seeds are the committed
// corpus under testdata/fuzz/FuzzAssemble: a tree, duplicate IDs, a
// cycle, a self-parent, an orphan, equal start times, an erroring parent
// over an erroring and a clean child, and mixed trace IDs with spans
// Valid rejects.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans := fuzzSpans(data)
		in := slices.Clone(spans)
		got, skipped := AssembleAll(spans)
		want, wantSkipped := refAssembleAll(slices.Clone(spans))
		if !slices.Equal(spans, in) {
			t.Fatal("AssembleAll reordered its argument")
		}
		if len(got) != len(want) || skipped != wantSkipped {
			t.Fatalf("AssembleAll: %d traces, %d skipped; reference %d, %d", len(got), skipped, len(want), wantSkipped)
		}
		for i := range want {
			sameTrace(t, got[i], want[i])
		}
		// Assemble itself on the whole list (trace IDs mixed or not) and on
		// the first trace ID's spans, spans Valid rejects included.
		var first []*Span
		for _, s := range spans {
			if s.TraceID == spans[0].TraceID {
				first = append(first, s)
			}
		}
		for _, list := range [][]*Span{spans, first} {
			a, b := slices.Clone(list), slices.Clone(list)
			tr, err := Assemble(a)
			ref, refErr := refAssemble(b)
			if errKind(err) != errKind(refErr) {
				t.Fatalf("Assemble error %v, reference %v", err, refErr)
			}
			if !slices.Equal(a, b) {
				t.Fatal("Assemble left its argument in another order than the reference")
			}
			if err == nil {
				sameTrace(t, tr, ref)
			}
		}
	})
}

// fuzzSpans decodes data six bytes a span — trace ID, span ID, parent ID,
// start, duration, kind and error — each from a small range, so duplicate
// IDs, orphans, self-parents, cycles, equal starts and spans Valid rejects
// (empty IDs, a bogus kind, End before Start) are all common.
func fuzzSpans(data []byte) []*Span {
	kinds := []Kind{KindClient, KindServer, KindProducer, KindConsumer, KindInternal, "bogus"}
	var spans []*Span
	for ; len(data) >= 6; data = data[6:] {
		s := &Span{
			TraceID: []string{"", "t1", "t2", "t3"}[data[0]%4],
			Service: "svc" + strconv.Itoa(int(data[5]>>4)),
			Name:    "op",
			Start:   int64(data[3]%8) * 10,
			Error:   data[5]&1 == 1,
			Kind:    kinds[(data[5]>>1)%8%6],
		}
		if id := data[1] % 24; id > 0 {
			s.SpanID = "s" + strconv.Itoa(int(id))
		}
		if p := data[2] % 26; p > 0 {
			s.ParentID = "s" + strconv.Itoa(int(p))
		}
		s.End = s.Start + int64(data[4]%64) - 2
		spans = append(spans, s)
	}
	return spans
}

func errKind(err error) error {
	for _, kind := range []error{ErrEmptyTrace, ErrMixedTraces, ErrDupSpanID, ErrCycle} {
		if errors.Is(err, kind) {
			return kind
		}
	}
	return err
}

// sameTrace fails t unless got answers every accessor as want does.
func sameTrace(t *testing.T, got *Trace, want *refTrace) {
	t.Helper()
	if got.TraceID != want.TraceID || !slices.Equal(got.Spans, want.Spans) {
		t.Fatalf("trace %q: spans differ from the reference", want.TraceID)
	}
	if !slices.Equal(got.Roots(), want.roots) {
		t.Fatalf("trace %q: roots %v, want %v", want.TraceID, got.Roots(), want.roots)
	}
	maxDepth := 0
	for i := range want.Spans {
		kids := got.Children(i)
		if !slices.Equal(kids, want.children[i]) || cap(kids) != len(kids) {
			t.Fatalf("span %d: children %v (cap %d), want %v", i, kids, cap(kids), want.children[i])
		}
		if got.Parent(i) != want.parent[i] || got.Depth(i) != want.depth[i] {
			t.Fatalf("span %d: parent %d depth %d, want %d %d", i, got.Parent(i), got.Depth(i), want.parent[i], want.depth[i])
		}
		if got.ExclusiveDuration(i) != want.exclusiveDur[i] || got.ExclusiveError(i) != want.exclusiveErr[i] {
			t.Fatalf("span %d: exclusive %d/%v, want %d/%v", i,
				got.ExclusiveDuration(i), got.ExclusiveError(i), want.exclusiveDur[i], want.exclusiveErr[i])
		}
		maxDepth = max(maxDepth, want.depth[i]+1)
	}
	if got.MaxDepth() != maxDepth || got.RootDuration() != want.Spans[want.roots[0]].Duration() {
		t.Fatalf("trace %q: MaxDepth %d RootDuration %d", want.TraceID, got.MaxDepth(), got.RootDuration())
	}
	if p := got.CriticalPath(); !slices.Equal(p, want.refCriticalPath()) {
		t.Fatalf("trace %q: critical path %v, want %v", want.TraceID, p, want.refCriticalPath())
	}
}
