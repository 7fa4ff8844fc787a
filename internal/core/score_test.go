package core

import (
	"math"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/gnn"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// TestScoreBatchMatchesForwardLoss is the scoring correctness contract:
// ScoreBatch (pooled workspaces, parallel workers, the tape-free row pass
// for GIN) must be bit-identical, trace by trace, to a solo
// forwardLoss(Encode(tr)) on the heap — its two prediction heads and its
// loss, compared as float64 bits so NaN payloads count too. The cases
// cover the shipped shape on two app sizes, the small test shape, the
// PlainSum ablation, GCN (which scores on the tape itself) and output
// biases that make one head NaN or ±Inf on every span: NaN at h₃ makes
// every Eq. 3 child term NaN, so each sibling group's max falls back to 0.
// Every trace set holds copies with error spans, so both BCE targets and
// the propagated error term are exercised.
func TestScoreBatchMatchesForwardLoss(t *testing.T) {
	trained := func(rpcs int, cfg Config) func(t *testing.T) (*Model, []*trace.Trace) {
		return func(t *testing.T) (*Model, []*trace.Trace) {
			traces := withErrorCopies(t, simTraces(t, synth.Synthetic(rpcs, 41), 41, 24))
			m := NewModel(cfg)
			if _, err := m.Train(traces, TrainOptions{Epochs: 1, Seed: 41}); err != nil {
				t.Fatal(err)
			}
			return m, traces
		}
	}
	withBias := func(head int, v float64) func(t *testing.T) (*Model, []*trace.Trace) {
		return func(t *testing.T) (*Model, []*trace.Trace) {
			m, traces := trained(64, Config{Seed: 41})(t)
			mlp := m.agg.(*gnn.GINSiblingConv).MLP
			mlp.Layers[len(mlp.Layers)-1].B.Data[head] = v
			return m, traces
		}
	}
	cases := []struct {
		name  string
		model func(t *testing.T) (*Model, []*trace.Trace)
	}{
		{"shipped-Synthetic-64", trained(64, Config{Seed: 41})},
		{"shipped-Synthetic-256", trained(256, Config{Seed: 41})},
		{"small-untrained", func(t *testing.T) (*Model, []*trace.Trace) {
			traces := withErrorCopies(t, simTraces(t, synth.Synthetic(16, 31), 31, 24))
			m := NewModel(smallConfig(31))
			m.SetNormals(traces)
			return m, traces
		}},
		{"small-PlainSum", trained(16, Config{EmbeddingDim: 8, Hidden: 24, PlainSum: true, Seed: 41})},
		{"small-GCN", trained(16, Config{EmbeddingDim: 8, Hidden: 24, Variant: VariantGCN, Seed: 41})},
		{"bias-h1-NaN", withBias(1, math.NaN())},
		{"bias-h3-NaN", withBias(3, math.NaN())},
		{"bias-h4-+Inf", withBias(4, math.Inf(1))},
		{"bias-h0--Inf", withBias(0, math.Inf(-1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, traces := tc.model(t)
			gotDur, gotErr, losses := m.ScoreBatch(traces, 0)
			if len(gotDur) != len(traces) || len(gotErr) != len(traces) || len(losses) != len(traces) {
				t.Fatalf("result lengths %d/%d/%d, want %d", len(gotDur), len(gotErr), len(losses), len(traces))
			}
			for i, tr := range traces {
				pred, loss := m.forwardLoss(m.Encode(tr), nil)
				if !sameBits(gotDur[i], pred.durScaled.Data) {
					t.Fatalf("trace %d: durScaled %v != tape %v", i, gotDur[i], pred.durScaled.Data)
				}
				if !sameBits(gotErr[i], pred.errProb.Data) {
					t.Fatalf("trace %d: errProb %v != tape %v", i, gotErr[i], pred.errProb.Data)
				}
				if want := loss.Item(); math.Float64bits(losses[i]) != math.Float64bits(want) {
					t.Fatalf("trace %d: loss %v (%#x) != tape %v (%#x)", i, losses[i], math.Float64bits(losses[i]), want, math.Float64bits(want))
				}
			}
		})
	}
}

// withErrorCopies returns traces plus, for every third one, a copy whose
// every fifth span carries an error.
func withErrorCopies(t *testing.T, traces []*trace.Trace) []*trace.Trace {
	t.Helper()
	out := traces
	for ti := 0; ti < len(traces); ti += 3 {
		spans := make([]*trace.Span, traces[ti].Len())
		for i, sp := range traces[ti].Spans {
			cp := *sp
			cp.Error = cp.Error || i%5 == 2
			spans[i] = &cp
		}
		faulty, err := trace.Assemble(spans)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, faulty)
	}
	return out
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

// scoreSink keeps BenchmarkScoreBatch's calls from being optimised away.
var scoreSink []float64

// BenchmarkScoreBatch times one /score request's ScoreBatch call: the
// shipped shape (Config{}) on four Synthetic-64 traces, the size of a
// score_storm request, with warm pooled workspaces. ns/span is the
// per-span cost the benchmark's core.score_batch_us_per_span reports.
func BenchmarkScoreBatch(b *testing.B) {
	traces := simTraces(b, synth.Synthetic(64, 1), 1, 40)
	m := NewModel(Config{Seed: 1})
	if _, err := m.Train(traces, TrainOptions{Epochs: 1, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	req := traces[:4]
	spans := 0
	for _, tr := range req {
		spans += tr.Len()
	}
	m.ScoreBatch(req, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, scoreSink = m.ScoreBatch(req, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
}
