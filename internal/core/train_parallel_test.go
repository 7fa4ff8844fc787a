package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestTrainWorkerCountDeterminism is the acceptance test of the
// data-parallel engine: the same seed must produce bit-identical weights
// and loss at GOMAXPROCS 1, 2 and 8 — however many workers computed the
// gradients — because per-sample gradient buffers are reduced in fixed
// batch order.
func TestTrainWorkerCountDeterminism(t *testing.T) {
	app := synth.Synthetic(16, 30)
	traces := simTraces(t, app, 30, 24)
	for _, batch := range []int{1, 4} {
		var refLoss float64
		var refDict map[string][]float64
		for _, procs := range []int{1, 2, 8} {
			testenv.SetGOMAXPROCS(t, procs)
			m := NewModel(smallConfig(30))
			st, err := m.Train(traces, TrainOptions{
				Epochs: 2, BatchSize: batch, Seed: 77,
			})
			if err != nil {
				t.Fatal(err)
			}
			dict := nn.StateDict(m)
			if refDict == nil {
				refLoss, refDict = st.FinalLoss, dict
				continue
			}
			if st.FinalLoss != refLoss {
				t.Fatalf("batch=%d GOMAXPROCS=%d: FinalLoss %v != %v",
					batch, procs, st.FinalLoss, refLoss)
			}
			for name, ref := range refDict {
				got := dict[name]
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("batch=%d GOMAXPROCS=%d: weight %s[%d] = %v, want %v",
							batch, procs, name, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestBatchSizeOneMatchesLegacySGD: the default BatchSize=1 path must be
// bit-identical to per-trace SGD (scale 1/1 is exact, sample order is the
// same rng permutation), so pre-existing training numerics are unchanged.
func TestBatchSizeOneMatchesLegacySGD(t *testing.T) {
	app := synth.Synthetic(16, 31)
	traces := simTraces(t, app, 31, 16)
	a := NewModel(smallConfig(31))
	sa, err := a.Train(traces, TrainOptions{Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b := NewModel(smallConfig(31))
	testenv.SetGOMAXPROCS(t, 8)
	sb, err := b.Train(traces, TrainOptions{Epochs: 2, BatchSize: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sa.FinalLoss != sb.FinalLoss {
		t.Fatalf("FinalLoss %v != %v", sa.FinalLoss, sb.FinalLoss)
	}
	da, db := nn.StateDict(a), nn.StateDict(b)
	for name, ref := range da {
		for i := range ref {
			if db[name][i] != ref[i] {
				t.Fatalf("weight %s[%d] differs", name, i)
			}
		}
	}
}

// TestBatchSizeClamped: batch sizes beyond the corpus clamp instead of
// erroring, and still train.
func TestBatchSizeClamped(t *testing.T) {
	app := synth.Synthetic(16, 34)
	traces := simTraces(t, app, 34, 6)
	m := NewModel(smallConfig(34))
	before := m.MeanLoss(traces)
	st, err := m.Train(traces, TrainOptions{Epochs: 6, BatchSize: 64, LearningRate: 3e-3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalLoss >= before {
		t.Fatalf("full-batch training did not reduce loss: %v -> %v", before, st.FinalLoss)
	}
}

// TestMeanLossParallelDeterministic: MeanLoss is Σ ScoreBatch losses / n
// exactly at GOMAXPROCS 1, 2 and 8, and equals the sequential per-trace
// Loss reference summed in the same index order.
func TestMeanLossParallelDeterministic(t *testing.T) {
	app := synth.Synthetic(16, 35)
	traces := simTraces(t, app, 35, 10)
	m := NewModel(smallConfig(35))
	m.SetNormals(traces)
	ref := m.MeanLoss(traces)
	total := 0.0
	for _, tr := range traces {
		total += m.Loss(m.Encode(tr)).Item()
	}
	if want := total / float64(len(traces)); ref != want {
		t.Fatalf("MeanLoss = %v, sequential reference = %v", ref, want)
	}
	for _, procs := range []int{1, 2, 8} {
		testenv.SetGOMAXPROCS(t, procs)
		_, _, losses := m.ScoreBatch(traces, 0)
		sum := 0.0
		for _, l := range losses {
			sum += l
		}
		if got := sum / float64(len(losses)); got != ref {
			t.Fatalf("GOMAXPROCS=%d: mean of ScoreBatch losses %v != MeanLoss %v", procs, got, ref)
		}
	}
}
