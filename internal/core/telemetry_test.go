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
// arena memory gauges.
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
		Epochs: epochs, BatchSize: 4, GradClip: 1, Seed: 5,
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
	grad := r.LookupSeries("core.train.epoch.grad_norm").Stats(0)
	clipped := r.LookupSeries("core.train.epoch.grad_norm_clipped").Stats(0)
	if clipped.Max > grad.Max+1e-12 || clipped.Max > 1+1e-12 {
		t.Errorf("clipped norm (max %g) must be ≤ raw norm (max %g) and ≤ GradClip=1",
			clipped.Max, grad.Max)
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
