package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// These are the allocation-regression guards for the zero-allocation
// training hot path: if a change re-introduces per-step heap traffic (a
// closure capture, a variadic escape, a lost cache), these bounds fail long
// before a benchmark run would notice.

// TestTrainStepSteadyStateAllocs asserts that one steady-state training
// step — zero grads, forward, backward, capture, arena reset — allocates
// essentially nothing: the tape, all intermediates and all non-leaf
// gradients recycle through the arena.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	app := synth.Synthetic(16, 21)
	traces := simTraces(t, app, 21, 8)
	m := NewModel(smallConfig(21))
	m.SetNormals(traces)
	encs := m.encoder.EncodeAll(traces)
	ps := m.Params()
	buf := nn.NewGradBuffer(m)
	ar := tensor.NewArena()
	i := 0
	step := func() {
		nn.ZeroGradsOf(ps)
		_, loss := m.forwardLoss(encs[i%len(encs)], ar)
		loss.Backward()
		buf.CaptureParams(ps)
		_ = loss.Item()
		ar.Reset()
		i++
	}
	// Warm-up: touch every encoding so the per-trace tensor/graph caches and
	// the arena chunks exist before measuring.
	for j := 0; j < len(encs)+1; j++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg > 2 {
		t.Fatalf("steady-state train step allocates %.1f times per run, want <= 2", avg)
	}
}

// TestPredictSteadyStateAllocs bounds the per-trace allocation count of the
// scoring kernel. The step runs a scoring workspace's score with its
// encoding dropped, so it encodes the trace afresh and allocates the two
// result rows; the bound is a small constant independent of span count —
// not zero, but nowhere near one allocation per tape op.
func TestPredictSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	app := synth.Synthetic(16, 22)
	traces := simTraces(t, app, 22, 4)
	m := NewModel(smallConfig(22))
	m.SetNormals(traces)
	ws := new(scoreWorkspace)
	i := 0
	step := func() {
		ws.enc = nil
		_, _, _ = ws.score(m, traces[i%len(traces)])
		i++
	}
	for j := 0; j < len(traces)+1; j++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg > 32 {
		t.Fatalf("steady-state predict allocates %.1f times per run, want <= 32", avg)
	}
}

// TestServeSteadyStateAllocs is the online-serving allocation gate: a warm
// ScoreBatch call over a small request-sized batch — the call each /score
// request makes — must stay within a small constant per call.
// The pooled scoring workspaces arrive with their encoding, row evaluator
// and per-span slots grown, so the only per-call heap traffic is the three
// result slices and the two prediction rows per trace: 23 on 8 traces
// (AllocsPerRun runs at GOMAXPROCS 1, so par.For scores inline; the bound
// leaves room for worker goroutines). A workspace that stops being
// recycled costs six encoding allocations per trace at least.
func TestServeSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	app := synth.Synthetic(16, 23)
	traces := simTraces(t, app, 23, 8)
	m := NewModel(smallConfig(23))
	m.SetNormals(traces)
	step := func() {
		_, _, _ = m.ScoreBatch(traces, 0)
	}
	// Warm-up: populate the embedding cache and grow the pooled workspaces.
	for j := 0; j < 3; j++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg > 48 {
		t.Fatalf("steady-state ScoreBatch allocates %.1f times per run, want <= 48", avg)
	}
}

// TestSessionSteadyStateAllocs is the counterfactual session's allocation
// gate: a warm open, the six questions of nestedSets and Close, on a
// Synthetic-256 trace, must stay within a small constant. The pooled
// session brings its encoding, graph, evaluator rows and per-span state
// back and the normals are looked up without building key strings, so it
// measures 0. The bound of 2 is what one pool drop by the GC costs over
// the 50 runs (a whole session, ≈ 40 allocations); a buffer that stops
// being recycled costs at least one allocation on every open and trips it.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	traces := simTraces(t, synth.Synthetic(256, 24), 24, 4)
	m := NewModel(smallConfig(24))
	m.SetNormals(traces)
	tr := traces[1]
	sets := nestedSets(tr)
	step := func() {
		s := m.NewCounterfactualSession(tr)
		for _, set := range sets {
			_ = s.Counterfactual(set)
		}
		s.Close()
	}
	for j := 0; j < 3; j++ {
		step()
	}
	avg := testing.AllocsPerRun(50, step)
	t.Logf("open + %d questions + Close on %d spans: %.1f allocs", len(sets), tr.Len(), avg)
	if avg > 2 {
		t.Fatalf("warm session allocates %.1f times per open + six questions + Close, want <= 2", avg)
	}
}
