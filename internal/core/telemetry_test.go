package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestTrainEmitsEpochSeries: with observability enabled, Train must leave
// one sample per epoch in each series the training pack's rules read — the
// loss curve and the gradient-norm trajectory before clipping.
func TestTrainEmitsEpochSeries(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)

	app := synth.Synthetic(12, 41)
	traces := simTraces(t, app, 41, 12)
	m := NewModel(smallConfig(41))
	const epochs = 3
	testenv.SetGOMAXPROCS(t, 2) // two gradient workers
	if _, err := m.Train(traces, TrainOptions{
		Epochs: epochs, BatchSize: len(traces), Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}

	r := obs.Global()
	for _, name := range []string{
		"core.train.epoch.loss",
		"core.train.epoch.grad_norm",
	} {
		s := r.LookupSeries(name)
		if s == nil {
			t.Fatalf("series %q missing after Train (have %v)", name, r.SeriesNames())
		}
		if s.Len() != epochs {
			t.Errorf("series %q has %d samples, want %d", name, s.Len(), epochs)
		}
		if st := s.Stats(0); st.Min <= 0 {
			t.Errorf("series %q min = %g, want > 0", name, st.Min)
		}
	}
}
