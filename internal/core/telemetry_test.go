package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestTrainEmitsEpochSeries: with observability enabled, Train must leave
// one sample per epoch in each model-quality series — the loss curve, the
// gradient-norm trajectory before and after clipping, throughput, and the
// arena memory gauges. One batch per epoch makes each epoch's clipped norm
// exactly min(raw norm, gradClip).
func TestTrainEmitsEpochSeries(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)

	app := synth.Synthetic(12, 41)
	traces := simTraces(t, app, 41, 12)
	m := NewModel(smallConfig(41))
	const epochs = 3
	testenv.SetGOMAXPROCS(t, 2) // two gradient workers, two arenas
	if _, err := m.Train(traces, TrainOptions{
		Epochs: epochs, BatchSize: len(traces), Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}

	r := obs.Global()
	for _, name := range []string{
		"core.train.epoch.loss",
		"core.train.epoch.grad_norm",
		"core.train.epoch.grad_norm_clipped",
		"core.train.epoch.samples_per_sec",
		"core.train.epoch.arena_bytes",
		"core.train.epoch.arena_resets",
	} {
		s := r.LookupSeries(name)
		if s == nil {
			t.Fatalf("series %q missing after Train (have %v)", name, r.SeriesNames())
		}
		if s.Len() != epochs {
			t.Errorf("series %q has %d samples, want %d", name, s.Len(), epochs)
		}
	}

	loss := r.LookupSeries("core.train.epoch.loss").Stats(0)
	if loss.Min <= 0 {
		t.Errorf("loss series min = %g, want > 0", loss.Min)
	}
	raw := r.LookupSeries("core.train.epoch.grad_norm").Samples(0)
	clipped := r.LookupSeries("core.train.epoch.grad_norm_clipped").Samples(0)
	for i := range min(len(raw), len(clipped)) {
		if want := min(raw[i].V, gradClip); clipped[i].V != want {
			t.Errorf("epoch %d: clipped norm %g, want min(raw %g, %d) = %g",
				i, clipped[i].V, raw[i].V, gradClip, want)
		}
	}
	if rate := r.LookupSeries("core.train.epoch.samples_per_sec").Stats(0); rate.Min <= 0 {
		t.Errorf("samples_per_sec min = %g, want > 0", rate.Min)
	}
	if ab := r.LookupSeries("core.train.epoch.arena_bytes").Stats(0); ab.Min <= 0 {
		t.Errorf("arena_bytes min = %g, want > 0 after a training epoch", ab.Min)
	}
	resets := r.LookupSeries("core.train.epoch.arena_resets").Samples(0)
	// Resets accumulate: one per sample processed, monotonically non-decreasing.
	for i := 1; i < len(resets); i++ {
		if resets[i].V < resets[i-1].V {
			t.Errorf("arena_resets not monotonic: %g then %g", resets[i-1].V, resets[i].V)
		}
	}
	if len(resets) > 0 && resets[len(resets)-1].V < float64(epochs*len(traces)) {
		t.Errorf("arena_resets final = %g, want ≥ %d (one reset per sample)",
			resets[len(resets)-1].V, epochs*len(traces))
	}
}
