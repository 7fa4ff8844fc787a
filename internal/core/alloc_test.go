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
		loss := m.lossOn(encs[i%len(encs)], ar)
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
// scoring kernel. scoreOn re-encodes the trace and copies the two result
// rows out, so the bound is a small constant independent of span count —
// not zero, but nowhere near the per-op tape allocations the arena
// eliminated.
func TestPredictSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	app := synth.Synthetic(16, 22)
	traces := simTraces(t, app, 22, 4)
	m := NewModel(smallConfig(22))
	m.SetNormals(traces)
	ar := tensor.NewArena()
	i := 0
	step := func() {
		_, _, _ = m.scoreOn(traces[i%len(traces)], ar)
		ar.Reset()
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
// ScoreBatch call over a small request-sized batch — the shape the /score
// micro-batcher produces continuously — must stay within a small constant
// per call. The pooled worker arenas arrive pre-grown, so the only per-call
// heap traffic is the result slices and the per-trace prediction copies.
func TestServeSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	app := synth.Synthetic(16, 23)
	traces := simTraces(t, app, 23, 8)
	m := NewModel(smallConfig(23))
	m.SetNormals(traces)
	step := func() {
		_, _, _ = m.ScoreBatch(traces, 2)
	}
	// Warm-up: populate per-trace caches and grow the pooled arenas.
	for j := 0; j < 3; j++ {
		step()
	}
	// Same per-trace budget as the predict gate (≤32: prediction copies +
	// encode/loss constants), times 8 traces. A lost arena or a cold pool
	// shows up as thousands of tape/slab allocations and trips this at once.
	if avg := testing.AllocsPerRun(50, step); avg > 32*8 {
		t.Fatalf("steady-state ScoreBatch allocates %.1f times per run, want <= 256", avg)
	}
}
