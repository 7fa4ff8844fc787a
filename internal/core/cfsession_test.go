package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/synth"
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
		}
		if s.RowsUpdated() == 0 && n > 1 {
			t.Fatalf("trace %d: session reported no row updates", ti)
		}
		s.Close()
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
