package core

import (
	"maps"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// forVariants runs fn against both aggregators: GIN answers through the
// row-incremental kernels, GCN through a full forward per question.
func forVariants(t *testing.T, fn func(t *testing.T, v Variant)) {
	for _, v := range []Variant{VariantGIN, VariantGCN} {
		t.Run(string(v), func(t *testing.T) { fn(t, v) })
	}
}

// TestCounterfactualSessionEquivalence is the equivalence gate for the
// long-lived session: across a nested sequence of restoration sets (the
// exact access pattern of the §3.5 localisation loop) plus a shrink back
// to a disjoint set (exercising row undo), every session result must be
// bit-identical to Model.Counterfactual — a fresh session's full
// recomputation — on the same inputs.
func TestCounterfactualSessionEquivalence(t *testing.T) {
	forVariants(t, testCounterfactualSessionEquivalence)
}

func testCounterfactualSessionEquivalence(t *testing.T, v Variant) {
	app := synth.Synthetic(24, 7)
	traces := simTraces(t, app, 7, 60)
	cfg := smallConfig(7)
	cfg.Variant = v
	m := NewModel(cfg)
	if _, err := m.Train(traces, TrainOptions{Epochs: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	m.SetNormals(traces)

	for ti, tr := range traces[:8] {
		s := m.NewCounterfactualSession(tr)
		n := tr.Len()
		// Nested prefix sets 0, {0}, {0,1}, ..., then an undo back to a
		// disjoint suffix set.
		sets := make([]map[int]bool, 0, 8)
		cur := map[int]bool{}
		sets = append(sets, map[int]bool{})
		for i := 0; i < n && i < 5; i++ {
			cur[i] = true
			cp := make(map[int]bool, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			sets = append(sets, cp)
		}
		suffix := map[int]bool{n - 1: true}
		if n > 2 {
			suffix[n-2] = true
		}
		sets = append(sets, suffix)
		for si, set := range sets {
			got := s.Counterfactual(set)
			want := m.Counterfactual(tr, set)
			if got != want {
				t.Fatalf("trace %d set %d: session %+v != fresh %+v", ti, si, got, want)
			}
			if ref := tapeCounterfactual(m, tr, set); want != ref {
				t.Fatalf("trace %d set %d: fresh session %+v != tape reference %+v", ti, si, want, ref)
			}
		}
		if s.RowsUpdated() == 0 && n > 1 {
			t.Fatalf("trace %d: session reported no row updates", ti)
		}
		s.Close()
	}
}

// tapeCounterfactual answers one question on a session built outside the
// pool with the incremental evaluator switched off: fresh buffers and the
// tape Forward, never Prime — the reference a pooled session's first
// answer is held to.
func tapeCounterfactual(m *Model, tr *trace.Trace, set map[int]bool) CounterfactualResult {
	s := new(CounterfactualSession)
	s.open(m, tr)
	s.inc = nil
	return s.Counterfactual(set)
}

// nestedSets is the localisation loop's access pattern over tr, six
// questions: a growing run of sets from {0}, an undo of everything, then
// a set that shares only span 0 with the run. Span 0 in the first and last
// sets makes a reopened session that kept its old intervention state
// answer its first question wrong.
func nestedSets(tr *trace.Trace) []map[int]bool {
	n := tr.Len()
	var sets []map[int]bool
	cur := map[int]bool{}
	for _, i := range []int{0, n - 1, n / 2, 1} {
		cur[i%n] = true
		sets = append(sets, maps.Clone(cur))
	}
	return append(sets, map[int]bool{}, map[int]bool{0: true, (n - 2 + n) % n: true})
}

// TestSessionPoolReuse holds recycled sessions to the tape reference: a
// session reopened on traces of alternating size (Synthetic-256, then
// Synthetic-24, then Synthetic-256 again) must answer exactly as fresh
// buffers do, and a trace with errors must leave nothing in the error
// columns of the clean trace encoded after it.
func TestSessionPoolReuse(t *testing.T) {
	forVariants(t, testSessionPoolReuse)
}

func testSessionPoolReuse(t *testing.T, v Variant) {
	big := simTraces(t, synth.Synthetic(256, 13), 13, 6)
	small := simTraces(t, synth.Synthetic(24, 13), 13, 6)
	cfg := smallConfig(13)
	cfg.Variant = v
	m := NewModel(cfg)
	if _, err := m.Train(small, TrainOptions{Epochs: 1, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	m.SetNormals(append(append([]*trace.Trace(nil), big...), small...))

	clean := big[2]
	spans := make([]*trace.Span, clean.Len())
	for i, sp := range clean.Spans {
		cp := *sp
		cp.Error = i%3 == 0
		spans[i] = &cp
	}
	faulty, err := trace.Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	seq := []*trace.Trace{big[0], small[0], big[1], small[1], faulty, clean, small[2], big[3]}

	check := func(s *CounterfactualSession, tr *trace.Trace, k int) {
		t.Helper()
		for si, set := range nestedSets(tr) {
			if got, want := s.Counterfactual(set), tapeCounterfactual(m, tr, set); got != want {
				t.Fatalf("trace %d (%d spans) set %d: recycled session %+v != tape reference %+v",
					k, tr.Len(), si, got, want)
			}
		}
	}
	// One session reopened in place: reuse is certain, not up to the pool.
	var reused CounterfactualSession
	for k, tr := range seq {
		reused.open(m, tr)
		if tr == clean {
			for i := range tr.Spans {
				if reused.enc.X[i][1] != 0 || reused.enc.XStar[i][1] != 0 {
					t.Fatalf("span %d of the clean trace kept an error flag from the faulty one", i)
				}
			}
		}
		check(&reused, tr, k)
	}
	// The same sequence through the pool.
	for k, tr := range seq {
		s := m.NewCounterfactualSession(tr)
		check(s, tr, k)
		s.Close()
	}
}

// TestSessionCloseTwice: a second Close must not hand the session to the
// pool again, or two later sessions would share one set of buffers.
func TestSessionCloseTwice(t *testing.T) {
	traces := simTraces(t, synth.Synthetic(24, 15), 15, 4)
	m := NewModel(smallConfig(15))
	m.SetNormals(traces)
	s := m.NewCounterfactualSession(traces[0])
	s.Close()
	s.Close()
	a := m.NewCounterfactualSession(traces[1])
	b := m.NewCounterfactualSession(traces[2])
	defer a.Close()
	defer b.Close()
	if a == b {
		t.Fatal("two open sessions share one pooled value")
	}
	for _, c := range []struct {
		s  *CounterfactualSession
		tr *trace.Trace
	}{{a, traces[1]}, {b, traces[2]}} {
		for si, set := range nestedSets(c.tr) {
			if got, want := c.s.Counterfactual(set), tapeCounterfactual(m, c.tr, set); got != want {
				t.Fatalf("set %d: %+v, tape reference %+v", si, got, want)
			}
		}
	}
}

// TestCounterfactualSessionDeltaRows checks the incremental claim itself:
// nested restoration sets must cost only the delta rows, not n rows per
// call.
func TestCounterfactualSessionDeltaRows(t *testing.T) {
	forVariants(t, testCounterfactualSessionDeltaRows)
}

func testCounterfactualSessionDeltaRows(t *testing.T, v Variant) {
	app := synth.Synthetic(24, 9)
	traces := simTraces(t, app, 9, 30)
	cfg := smallConfig(9)
	cfg.Variant = v
	m := NewModel(cfg)
	if _, err := m.Train(traces, TrainOptions{Epochs: 2, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	m.SetNormals(traces)
	tr := traces[0]
	s := m.NewCounterfactualSession(tr)
	defer s.Close()
	set := map[int]bool{}
	for i := 0; i < 4 && i < tr.Len(); i++ {
		set[i] = true
		s.Counterfactual(set)
	}
	if got, want := s.RowsUpdated(), int64(len(set)); got != want {
		t.Fatalf("rows updated = %d, want %d (one per newly restored span)", got, want)
	}
}

// TestNormalSigma checks SetNormals computes a robust spread and that
// shrinkage blends it like the medians.
func TestNormalSigma(t *testing.T) {
	app := synth.Synthetic(16, 3)
	traces := simTraces(t, app, 3, 60)
	m := NewModel(smallConfig(3))
	m.SetNormals(traces)
	anySigma := false
	for i := range traces[0].Spans {
		norm := m.Normal(traces[0].Spans[i].OpKey())
		if norm.SigmaExclusiveDuration < 0 {
			t.Fatalf("negative sigma for span %d: %+v", i, norm)
		}
		if norm.SigmaExclusiveDuration > 0 {
			anySigma = true
		}
	}
	if !anySigma {
		t.Fatal("no operation has a positive exclusive-duration sigma")
	}
	if g := m.Normal("no-such-op"); g.SigmaExclusiveDuration != m.globalNormal.SigmaExclusiveDuration {
		t.Fatalf("unknown op should fall back to global sigma: %+v", g)
	}
}
