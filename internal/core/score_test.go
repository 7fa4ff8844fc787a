package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/synth"
)

// TestScoreBatchMatchesPredictAndLoss is the batched-scoring correctness
// contract: ScoreBatch (pooled workspaces, parallel workers) must be
// bit-identical, trace by trace, to solo heap scoring — Predict for the
// per-span predictions, Loss(Encode(tr)) for the loss.
func TestScoreBatchMatchesPredictAndLoss(t *testing.T) {
	app := synth.Synthetic(16, 31)
	traces := simTraces(t, app, 31, 24)
	m := NewModel(smallConfig(31))
	m.SetNormals(traces)

	gotDur, gotErr, losses := m.ScoreBatch(traces, 0)

	if len(gotDur) != len(traces) || len(gotErr) != len(traces) || len(losses) != len(traces) {
		t.Fatalf("result lengths %d/%d/%d, want %d", len(gotDur), len(gotErr), len(losses), len(traces))
	}
	for i, tr := range traces {
		wantDur, wantErr := m.Predict(tr)
		if len(gotDur[i]) != tr.Len() || len(wantDur) != tr.Len() {
			t.Fatalf("trace %d: %d/%d durations for %d spans", i, len(gotDur[i]), len(wantDur), tr.Len())
		}
		for j := range wantDur {
			if gotDur[i][j] != wantDur[j] {
				t.Fatalf("trace %d span %d: durScaled %v != Predict %v", i, j, gotDur[i][j], wantDur[j])
			}
			if gotErr[i][j] != wantErr[j] {
				t.Fatalf("trace %d span %d: errProb %v != Predict %v", i, j, gotErr[i][j], wantErr[j])
			}
		}
		want := m.Loss(m.Encode(tr)).Item()
		if losses[i] != want {
			t.Fatalf("trace %d: loss %v != Loss %v", i, losses[i], want)
		}
	}
}

// TestScoreBatchWorkerDeterminism asserts the worker count never changes a
// single bit of any result — the per-trace forward passes are independent.
func TestScoreBatchWorkerDeterminism(t *testing.T) {
	app := synth.Synthetic(16, 32)
	traces := simTraces(t, app, 32, 17)
	m := NewModel(smallConfig(32))
	m.SetNormals(traces)

	baseDur, baseErr, baseLoss := m.ScoreBatch(traces, 1)
	for _, workers := range []int{2, 3, 8} {
		dur, errp, losses := m.ScoreBatch(traces, workers)
		for i := range traces {
			if losses[i] != baseLoss[i] {
				t.Fatalf("workers=%d trace %d: loss %v != workers=1 %v", workers, i, losses[i], baseLoss[i])
			}
			for j := range dur[i] {
				if dur[i][j] != baseDur[i][j] || errp[i][j] != baseErr[i][j] {
					t.Fatalf("workers=%d trace %d span %d: prediction differs from workers=1", workers, i, j)
				}
			}
		}
	}
}
