// Benchmark harness regenerating every table and figure of the paper's
// evaluation section (§6). Each benchmark runs the corresponding
// experiment at QuickEffort sizing and logs the rendered table/series —
// the same artefacts cmd/benchrunner produces (use `benchrunner -full`
// for paper-scale sample counts).
//
//	go test -bench=. -benchmem
package sleuth

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/eval"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

const benchSeed = 1

// fig5Once caches the Figure-5 measurement so the training and inference
// panels (two benchmarks) share one run.
var (
	fig5Once sync.Once
	fig5Rows []eval.Fig5Row
	fig5Err  error
)

func fig5Results() ([]eval.Fig5Row, error) {
	fig5Once.Do(func() {
		fig5Rows, fig5Err = eval.Fig5(eval.QuickEffort(benchSeed))
	})
	return fig5Rows, fig5Err
}

// BenchmarkTable1BenchmarkSpecs regenerates Table 1: the specifications of
// the two open-source-shaped presets and the four synthetic scales.
func BenchmarkTable1BenchmarkSpecs(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		t := eval.Table1(benchSeed)
		out = t.String()
	}
	b.Log("\nTable 1 — benchmark specifications\n" + out)
}

// BenchmarkFig1NSigmaScaling regenerates Figure 1: best-achievable F1/ACC
// of the n-sigma rule (and the optimal n) as the application scales. Paper
// shape: both metrics fall sharply with scale; n=3 stops being optimal.
func BenchmarkFig1NSigmaScaling(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig1(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderFig1(rows)
	}
	b.Log("\nFigure 1 — n-sigma degradation with scale\n" + out)
}

// BenchmarkFig3DurationCDF regenerates Figure 3: the span-duration CDF of
// a SocialNetwork-like application on a log scale. Paper shape: ~90% of
// spans within one decade of the minimum, a tail reaching several decades.
func BenchmarkFig3DurationCDF(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := eval.Fig3(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = s.String()
	}
	b.Log("\nFigure 3 — span duration CDF (log10 of duration/min)\n" + out)
}

// BenchmarkTable3Accuracy regenerates Table 3: F1 and ACC of every RCA
// algorithm across the benchmark applications, including Sleuth under the
// Jaccard and DeepTraLog clustering metrics. Paper shape: Sleuth-GIN leads;
// counterfactual methods (Sleuth, Sage) dominate rules and correlations;
// rule-based methods decay with scale; clustering costs a bounded accuracy
// margin.
func BenchmarkTable3Accuracy(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res, err := eval.Table3(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderTable3(res)
	}
	b.Log("\nTable 3 — RCA accuracy comparison\n" + out)
}

// BenchmarkFig5Training regenerates Figure 5a: training time versus
// application scale. Paper shape: Sleuth-GIN/GCN grow sublinearly (fixed
// model, cost follows span counts); Sage grows linearly with the ensemble;
// GIN trains faster than the heavier GCN.
func BenchmarkFig5Training(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig5Once = sync.Once{} // re-measure on every iteration
		if _, err := fig5Results(); err != nil {
			b.Fatal(err)
		}
	}
	rows, err := fig5Results()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\nFigure 5 — training and inference scaling\n" + eval.RenderFig5(rows))
}

// BenchmarkFig5Inference regenerates Figure 5b: inference time per
// 1000-trace batch versus scale, with and without trace clustering. Paper
// shape: clustering speeds inference by the cluster-compression factor,
// more at larger scales; Sleuth's per-query cost grows with trace size
// only, not model size. The shipped policy seldom clusters the evaluation's
// ≈ 5-trace incident windows, so here the clustered column carries the
// pipeline's overhead; `diagnose_large` (benchmark/) shows the compression
// at production window size.
func BenchmarkFig5Inference(b *testing.B) {
	rows, err := fig5Results()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = eval.RenderFig5(rows)
	}
	b.Log("\nFigure 5b — inference per 1000 traces (see columns infer/1k)\n" + eval.RenderFig5(rows))
}

// BenchmarkFig6ServiceUpdates regenerates Figure 6: detection accuracy of
// Sleuth and Sage across the A-D service-update sequence. Paper shape:
// Sage dips hard on structural updates (new services have no per-node
// model) and needs full retrains; Sleuth's fixed architecture generalises
// to the new nodes and recovers with a cheap fine-tune.
func BenchmarkFig6ServiceUpdates(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig6(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderFig6(points)
	}
	b.Log("\nFigure 6 — accuracy across service updates\n" + out)
}

// BenchmarkFig7Transfer regenerates Figure 7: accuracy and adaptation time
// of pre-trained Sleuth models fine-tuned onto unseen applications with a
// ladder of sample counts, against Sage retrained from scratch. Paper
// shape: few-shot fine-tuning reaches from-scratch accuracy orders of
// magnitude faster; diverse-corpus pre-training transfers zero-shot.
func BenchmarkFig7Transfer(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig7(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderFig7(points)
	}
	b.Log("\nFigure 7 — transfer learning\n" + out)
}

// BenchmarkFig8Semantics regenerates Figure 8: detection accuracy with the
// target's original names versus a disjoint random vocabulary, with and
// without fine-tuning. Paper shape: single-source pre-training loses
// accuracy on misleading names; corpus pre-training and fine-tuning close
// the gap.
func BenchmarkFig8Semantics(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig8(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderFig8(points)
	}
	b.Log("\nFigure 8 — sensitivity to semantic information\n" + out)
}

// BenchmarkInstanceLevelAccuracy scores the §3.5 instance mapping at
// service, pod and node granularity.
func BenchmarkInstanceLevelAccuracy(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		il, err := eval.InstanceTable(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderInstanceLevel(il)
	}
	b.Log("\nInstance-level accuracy (service / pod / node)\n" + out)
}

// BenchmarkAblationDmax sweeps the d_max ancestor window of the Eq. 1 span
// identifier (DESIGN.md ablation).
func BenchmarkAblationDmax(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := eval.AblationDmax(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderAblationDmax(rows)
	}
	b.Log("\nAblation — d_max ancestor window\n" + out)
}

// BenchmarkAblationClippedReLU compares the Eq. 2 learned clipping window
// against a plain child-duration sum (DESIGN.md ablation).
func BenchmarkAblationClippedReLU(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := eval.AblationClippedReLU(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderAblationWindow(rows)
	}
	b.Log("\nAblation — Eq. 2 clipping window vs plain sum\n" + out)
}

// BenchmarkTrainWorkers sweeps the data-parallel training path: one
// mini-batch configuration trained at GOMAXPROCS 1, 2, 4 and 8, which sets
// the gradient workers. Training results are bit-identical across the
// sweep (see TestTrainWorkerCountDeterminism in internal/core); on a
// multi-core machine throughput scales until the core count is reached.
func BenchmarkTrainWorkers(b *testing.B) {
	app := NewSyntheticApp(64, benchSeed)
	world := NewWorld(app, benchSeed)
	traces, err := world.SimulateNormal(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(b *testing.B) {
			testenv.SetGOMAXPROCS(b, procs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(traces, TrainConfig{
					Epochs: 1, BatchSize: 32, Seed: benchSeed,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEpsilon sweeps HDBSCAN's cluster_selection_epsilon
// (DESIGN.md ablation).
func BenchmarkAblationEpsilon(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		rows, err := eval.AblationEpsilon(eval.QuickEffort(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		out = eval.RenderAblationEpsilon(rows)
	}
	b.Log("\nAblation — HDBSCAN selection epsilon\n" + out)
}
