package core

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestScoreBatchMatchesForwardLoss is the batched-scoring correctness
// contract: ScoreBatch (pooled workspaces, parallel workers) must be
// bit-identical, trace by trace, to a solo forwardLoss(Encode(tr)) on the
// heap — its two prediction heads and its loss.
func TestScoreBatchMatchesForwardLoss(t *testing.T) {
	app := synth.Synthetic(16, 31)
	traces := simTraces(t, app, 31, 24)
	m := NewModel(smallConfig(31))
	m.SetNormals(traces)

	gotDur, gotErr, losses := m.ScoreBatch(traces, 0)

	if len(gotDur) != len(traces) || len(gotErr) != len(traces) || len(losses) != len(traces) {
		t.Fatalf("result lengths %d/%d/%d, want %d", len(gotDur), len(gotErr), len(losses), len(traces))
	}
	for i, tr := range traces {
		pred, loss := m.forwardLoss(m.Encode(tr), nil)
		wantDur, wantErr := pred.durScaled.Data, pred.errProb.Data
		if len(gotDur[i]) != tr.Len() || len(wantDur) != tr.Len() {
			t.Fatalf("trace %d: %d/%d durations for %d spans", i, len(gotDur[i]), len(wantDur), tr.Len())
		}
		for j := range wantDur {
			if gotDur[i][j] != wantDur[j] {
				t.Fatalf("trace %d span %d: durScaled %v != solo %v", i, j, gotDur[i][j], wantDur[j])
			}
			if gotErr[i][j] != wantErr[j] {
				t.Fatalf("trace %d span %d: errProb %v != solo %v", i, j, gotErr[i][j], wantErr[j])
			}
		}
		if want := loss.Item(); losses[i] != want {
			t.Fatalf("trace %d: loss %v != solo %v", i, losses[i], want)
		}
	}
}

// TestScoreBatchWorkerDeterminism asserts the worker count — GOMAXPROCS —
// never changes a single bit of any result: the per-trace forward passes
// are independent.
func TestScoreBatchWorkerDeterminism(t *testing.T) {
	app := synth.Synthetic(16, 32)
	traces := simTraces(t, app, 32, 17)
	m := NewModel(smallConfig(32))
	m.SetNormals(traces)

	testenv.SetGOMAXPROCS(t, 1)
	baseDur, baseErr, baseLoss := m.ScoreBatch(traces, 0)
	for _, procs := range []int{2, 3, 8} {
		testenv.SetGOMAXPROCS(t, procs)
		dur, errp, losses := m.ScoreBatch(traces, 0)
		for i := range traces {
			if losses[i] != baseLoss[i] {
				t.Fatalf("GOMAXPROCS=%d trace %d: loss %v != GOMAXPROCS=1 %v", procs, i, losses[i], baseLoss[i])
			}
			for j := range dur[i] {
				if dur[i][j] != baseDur[i][j] || errp[i][j] != baseErr[i][j] {
					t.Fatalf("GOMAXPROCS=%d trace %d span %d: prediction differs from GOMAXPROCS=1", procs, i, j)
				}
			}
		}
	}
}
