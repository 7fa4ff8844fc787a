package eval

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/baselines"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/synth"
)

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	c.Add([]string{"a"}, []string{"a"})           // exact
	c.Add([]string{"a", "b"}, []string{"a"})      // 1 TP 1 FP
	c.Add([]string{}, []string{"x"})              // 1 FN
	c.Add([]string{"p", "q"}, []string{"p", "q"}) // exact
	if c.Queries != 4 || c.Exact != 2 {
		t.Fatalf("queries/exact = %d/%d", c.Queries, c.Exact)
	}
	if c.TP != 4 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("TP/FP/FN = %d/%d/%d", c.TP, c.FP, c.FN)
	}
	wantF1 := float64(2*4) / float64(2*4+1+1)
	if f := c.F1(); f != wantF1 {
		t.Fatalf("F1 = %v, want %v", f, wantF1)
	}
	if a := c.ACC(); a != 0.5 {
		t.Fatalf("ACC = %v", a)
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.F1() != 0 || c.ACC() != 0 {
		t.Fatal("empty confusion not zero")
	}
	// Both sets empty counts as exact.
	c.Add(nil, nil)
	if c.ACC() != 1 {
		t.Fatalf("empty-vs-empty ACC = %v", c.ACC())
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"name", "v"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	s := tb.String()
	if len(s) == 0 {
		t.Fatal("empty render")
	}
	lines := 0
	for _, ch := range s {
		if ch == '\n' {
			lines++
		}
	}
	if lines != 4 { // header + separator + 2 rows
		t.Fatalf("rendered %d lines", lines)
	}
}

func TestBuildDataset(t *testing.T) {
	app := synth.Synthetic(16, 3)
	opts := DefaultDatasetOptions(3)
	opts.NormalTraces = 80
	opts.AnomalousTrainTraces = 20
	opts.NumQueries = 10
	ds, err := BuildDataset(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Normal) != 80 {
		t.Fatalf("normal = %d", len(ds.Normal))
	}
	if got := len(ds.Train) - len(ds.Normal); got != 20 {
		t.Fatalf("anomalous train = %d", got)
	}
	if len(ds.Queries) != 10 {
		t.Fatalf("queries = %d", len(ds.Queries))
	}
	if len(ds.SLO) == 0 || ds.GlobalSLO <= 0 {
		t.Fatal("SLOs not calibrated")
	}
	for _, q := range ds.Queries {
		if len(q.Truth) == 0 {
			t.Fatal("query without ground truth")
		}
		if q.SLOMicros <= 0 {
			t.Fatal("query without SLO")
		}
		if float64(q.Trace.RootDuration()) <= q.SLOMicros && !q.Trace.HasError() {
			t.Fatal("query trace does not violate its SLO")
		}
	}
}

// buildSleuth trains a small Sleuth localizer on the dataset.
func buildSleuth(t testing.TB, ds *Dataset, seed uint64) *rca.Localizer {
	t.Helper()
	m := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 24, Seed: seed})
	if _, err := m.Train(ds.Train, core.TrainOptions{Epochs: 3, LearningRate: 3e-3, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return rca.NewLocalizer(m, rca.DefaultOptions())
}

func TestEvaluateSleuthBeatsRules(t *testing.T) {
	app := synth.Synthetic(16, 5)
	opts := DefaultDatasetOptions(5)
	opts.NormalTraces = 120
	opts.AnomalousTrainTraces = 40
	opts.NumQueries = 25
	ds, err := BuildDataset(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	sleuth := buildSleuth(t, ds, 5)
	cSleuth, _, err := Evaluate(sleuth, ds)
	if err != nil {
		t.Fatal(err)
	}
	cThresh, _, err := Evaluate(baselines.NewThreshold(99), ds)
	if err != nil {
		t.Fatal(err)
	}
	cRealtime, _, err := Evaluate(baselines.NewRealtime(), ds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Sleuth: %s", cSleuth.String())
	t.Logf("Threshold: %s", cThresh.String())
	t.Logf("Realtime: %s", cRealtime.String())
	if cSleuth.F1() < 0.5 {
		t.Fatalf("Sleuth F1 too low: %v", cSleuth.F1())
	}
	if cSleuth.F1() <= cThresh.F1() {
		t.Fatalf("Sleuth (%.2f) did not beat Threshold (%.2f)", cSleuth.F1(), cThresh.F1())
	}
	if cSleuth.F1() <= cRealtime.F1() {
		t.Fatalf("Sleuth (%.2f) did not beat Realtime (%.2f)", cSleuth.F1(), cRealtime.F1())
	}
}

// TestClusteredEvaluateSmallWindowsMatchEvaluate: ClusteredEvaluate runs
// the one clustering policy Analyze runs, and that policy never selects the
// dendrogram root, so a window shorter than two clusters of MinClusterSize
// is all noise. Every query is then localised on its own, and the
// clustered confusion is Evaluate's, query for query.
func TestClusteredEvaluateSmallWindowsMatchEvaluate(t *testing.T) {
	app := synth.Synthetic(16, 7)
	opts := DefaultDatasetOptions(7)
	opts.NormalTraces = 100
	opts.AnomalousTrainTraces = 30
	opts.NumQueries = 30
	ds, err := BuildDataset(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the windows shorter than two clusters of MinClusterSize.
	policy := cluster.DefaultOptions()
	windows := map[int]int{}
	for _, q := range ds.Queries {
		windows[q.PlanID]++
	}
	var short []Query
	for _, q := range ds.Queries {
		if windows[q.PlanID] < 2*policy.MinClusterSize {
			short = append(short, q)
		}
	}
	if len(short) < 15 {
		t.Fatalf("only %d of %d queries sit in short windows; the test needs 15", len(short), len(ds.Queries))
	}
	ds.Queries = short
	sleuth := buildSleuth(t, ds, 7)
	full, _, err := Evaluate(sleuth, ds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ClusteredEvaluate(sleuth, ds, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full: %s; clustered: %s in %d inferences", full.String(), out.Confusion.String(), out.Inferences)
	if out.Confusion != full {
		t.Fatalf("clustered confusion %+v, want Evaluate's %+v", out.Confusion, full)
	}
	if out.Inferences != len(ds.Queries) {
		t.Fatalf("%d inferences for %d queries, want one each", out.Inferences, len(ds.Queries))
	}
}
