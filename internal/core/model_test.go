package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// simTraces simulates n fault-free traces of a small app.
func simTraces(t testing.TB, app *synth.App, seed uint64, n int) []*trace.Trace {
	t.Helper()
	s := sim.New(app, sim.DefaultOptions(seed))
	results, err := s.Run(0, n)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Traces(results)
}

// predict scores one trace on its own: ScoreBatch over a one-trace batch.
func predict(m *Model, tr *trace.Trace) (durScaled, errProb []float64) {
	d, e, _ := m.ScoreBatch([]*trace.Trace{tr}, 0)
	return d[0], e[0]
}

// meanLoss is the Eq. 5 objective over traces without training: the
// ScoreBatch losses summed in trace order.
func meanLoss(m *Model, traces []*trace.Trace) float64 {
	_, _, losses := m.ScoreBatch(traces, 0)
	total := 0.0
	for _, l := range losses {
		total += l
	}
	return total / float64(len(traces))
}

func smallConfig(seed uint64) Config {
	return Config{EmbeddingDim: 8, Hidden: 24, Seed: seed}
}

func TestTrainReducesLoss(t *testing.T) {
	app := synth.Synthetic(16, 1)
	traces := simTraces(t, app, 1, 60)
	m := NewModel(smallConfig(1))
	before := meanLoss(m, traces)
	stats, err := m.Train(traces, TrainOptions{Epochs: 4, LearningRate: 3e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss >= before {
		t.Fatalf("training did not reduce loss: %v -> %v", before, stats.FinalLoss)
	}
	if stats.FinalLoss > before*0.7 {
		t.Fatalf("loss barely moved: %v -> %v", before, stats.FinalLoss)
	}
}

func TestTrainEmptyErrors(t *testing.T) {
	m := NewModel(smallConfig(1))
	if _, err := m.Train(nil, TrainOptions{}); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestPredictShapesAndFinite(t *testing.T) {
	app := synth.Synthetic(16, 2)
	traces := simTraces(t, app, 2, 30)
	m := NewModel(smallConfig(2))
	if _, err := m.Train(traces, TrainOptions{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	dur, errp := predict(m, tr)
	if len(dur) != tr.Len() || len(errp) != tr.Len() {
		t.Fatalf("prediction sizes %d/%d for %d spans", len(dur), len(errp), tr.Len())
	}
	for i := range dur {
		if math.IsNaN(dur[i]) || math.IsInf(dur[i], 0) {
			t.Fatalf("non-finite duration prediction at %d", i)
		}
		if errp[i] < 0 || errp[i] > 1 {
			t.Fatalf("error probability out of range: %v", errp[i])
		}
	}
}

func TestLeafPredictionsExact(t *testing.T) {
	// For leaves the Eq.2 reconstruction is exclusive duration = duration,
	// so predicted scaled duration must equal the observed one exactly.
	app := synth.Synthetic(16, 3)
	traces := simTraces(t, app, 3, 5)
	m := NewModel(smallConfig(3))
	m.SetNormals(traces)
	tr := traces[0]
	dur, _ := predict(m, tr)
	enc := m.Encode(tr)
	for i := range tr.Spans {
		if len(tr.Children(i)) != 0 {
			continue
		}
		if math.Abs(dur[i]-enc.X[i][0]) > 1e-9 {
			t.Fatalf("leaf %d predicted %v, observed %v", i, dur[i], enc.X[i][0])
		}
	}
}

func TestNormals(t *testing.T) {
	app := synth.Synthetic(16, 4)
	traces := simTraces(t, app, 4, 40)
	m := NewModel(smallConfig(4))
	m.SetNormals(traces)
	if m.NormalsSize() == 0 {
		t.Fatal("no normals computed")
	}
	// Known op: stats must be positive and exclusive <= duration typically.
	k := traces[0].Spans[0].OpKey()
	n := m.Normal(k)
	if n.Count == 0 || n.MedianDuration <= 0 {
		t.Fatalf("normal stats for %q: %+v", k, n)
	}
	// Unknown op falls back to global.
	g := m.Normal("missing\x1fop\x1fclient")
	if g.MedianDuration <= 0 {
		t.Fatalf("global fallback: %+v", g)
	}
}

func TestCounterfactualRestorationReducesDuration(t *testing.T) {
	app := synth.Synthetic(16, 5)
	normal := simTraces(t, app, 5, 80)
	m := NewModel(smallConfig(5))
	if _, err := m.Train(normal, TrainOptions{Epochs: 3, LearningRate: 3e-3, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	// Inject a big slowdown and grab an affected trace.
	svc := app.ServiceAtCallDepth(1)
	name := app.Services[svc].Name
	plan := chaos.NewPlan(app,
		chaos.Fault{Type: chaos.FaultCPU, Level: chaos.LevelContainer, Target: name, SlowFactor: 60},
		chaos.Fault{Type: chaos.FaultMemory, Level: chaos.LevelContainer, Target: name, SlowFactor: 60},
		chaos.Fault{Type: chaos.FaultDisk, Level: chaos.LevelContainer, Target: name, SlowFactor: 60},
	)
	s := sim.New(app, sim.DefaultOptions(5))
	var anomalous *trace.Trace
	var baseDur int64
	for id := 0; id < 60; id++ {
		sample, err := s.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, rs := range sample.RootServices {
			if rs == name {
				hit = true
			}
		}
		if hit && sample.Result.Duration > 2*sample.FaultFreeDuration {
			anomalous = sample.Result.Trace
			baseDur = sample.FaultFreeDuration
			break
		}
	}
	if anomalous == nil {
		t.Skip("no strongly affected trace found")
	}

	// Restoring nothing ≈ observed duration.
	obs := m.Counterfactual(anomalous, nil)
	// Restoring the faulted service's spans must cut predicted duration.
	restore := map[int]bool{}
	for i, sp := range anomalous.Spans {
		if sp.Service == name {
			restore[i] = true
		}
		// Client spans into the faulted service restore too (§3.5).
		if sp.Kind == trace.KindClient {
			for _, c := range anomalous.Children(i) {
				if anomalous.Spans[c].Service == name {
					restore[i] = true
				}
			}
		}
	}
	cf := m.Counterfactual(anomalous, restore)
	if cf.RootDurationMicros >= obs.RootDurationMicros {
		t.Fatalf("restoration did not reduce predicted duration: %v -> %v",
			obs.RootDurationMicros, cf.RootDurationMicros)
	}
	// The counterfactual should land well below the anomalous duration,
	// in the direction of the fault-free baseline.
	gap := float64(anomalous.RootDuration()) - float64(baseDur)
	recovered := float64(anomalous.RootDuration()) - cf.RootDurationMicros
	if recovered < gap*0.3 {
		t.Fatalf("restoration recovered only %v of %v excess", recovered, gap)
	}
}

func TestCounterfactualUnrelatedRestorationSmall(t *testing.T) {
	app := synth.Synthetic(16, 6)
	normal := simTraces(t, app, 6, 60)
	m := NewModel(smallConfig(6))
	if _, err := m.Train(normal, TrainOptions{Epochs: 3, LearningRate: 3e-3, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	tr := normal[0]
	obs := m.Counterfactual(tr, nil)
	// Restoring a single leaf of a normal trace should barely move the
	// prediction (its duration is already ~normal).
	leaf := -1
	for i := range tr.Spans {
		if len(tr.Children(i)) == 0 {
			leaf = i
			break
		}
	}
	cf := m.Counterfactual(tr, map[int]bool{leaf: true})
	rel := math.Abs(cf.RootDurationMicros-obs.RootDurationMicros) / obs.RootDurationMicros
	if rel > 0.5 {
		t.Fatalf("restoring a normal leaf changed the root by %.0f%%", rel*100)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	app := synth.Synthetic(16, 7)
	traces := simTraces(t, app, 7, 30)
	m := NewModel(smallConfig(7))
	if _, err := m.Train(traces, TrainOptions{Epochs: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumParams() != m.NumParams() {
		t.Fatal("param count changed")
	}
	d1, e1 := predict(m, traces[0])
	d2, e2 := predict(back, traces[0])
	for i := range d1 {
		if d1[i] != d2[i] || e1[i] != e2[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
	if back.NormalsSize() != m.NormalsSize() {
		t.Fatal("normals lost in round trip")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	app := synth.Synthetic(16, 8)
	traces := simTraces(t, app, 8, 30)
	m := NewModel(smallConfig(8))
	if _, err := m.Train(traces, TrainOptions{Epochs: 2, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	d1, _ := predict(m, traces[0])
	d2, _ := predict(c, traces[0])
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("clone predicts differently")
		}
	}
	// Training the clone must not affect the original.
	if _, err := c.FineTune(traces[:10], TrainOptions{Epochs: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	d3, _ := predict(m, traces[0])
	for i := range d1 {
		if d1[i] != d3[i] {
			t.Fatal("fine-tuning a clone mutated the original")
		}
	}
}

func TestTransferAcrossApps(t *testing.T) {
	// The fixed architecture must run unchanged on a different app with a
	// different RPC graph (the property Sage lacks, §6.5).
	appA := synth.Synthetic(16, 9)
	appB := synth.Synthetic(64, 10)
	tracesA := simTraces(t, appA, 9, 40)
	tracesB := simTraces(t, appB, 10, 10)
	m := NewModel(smallConfig(9))
	if _, err := m.Train(tracesA, TrainOptions{Epochs: 2, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	// Zero-shot: only normals come from the new app.
	m.SetNormals(tracesB)
	dur, errp := predict(m, tracesB[0])
	if len(dur) != tracesB[0].Len() {
		t.Fatal("prediction size mismatch on transfer")
	}
	for i := range dur {
		if math.IsNaN(dur[i]) || errp[i] < 0 || errp[i] > 1 {
			t.Fatal("transfer prediction invalid")
		}
	}
}

func TestGCNVariantTrains(t *testing.T) {
	app := synth.Synthetic(16, 11)
	traces := simTraces(t, app, 11, 30)
	m := NewModel(Config{EmbeddingDim: 8, Hidden: 24, Variant: VariantGCN, Seed: 11})
	before := meanLoss(m, traces)
	st, err := m.Train(traces, TrainOptions{Epochs: 3, LearningRate: 3e-3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalLoss >= before {
		t.Fatalf("GCN variant did not learn: %v -> %v", before, st.FinalLoss)
	}
	// GCN is the heavier architecture (paper §6.3).
	gin := NewModel(Config{EmbeddingDim: 8, Hidden: 24, Variant: VariantGIN, Seed: 11})
	if m.NumParams() <= gin.NumParams() {
		t.Fatalf("GCN params %d should exceed GIN params %d", m.NumParams(), gin.NumParams())
	}
}

func TestFixedModelSizeAcrossScales(t *testing.T) {
	// The headline scalability claim: model size does not grow with the
	// application (§6.3, Figure 5 discussion).
	a := NewModel(smallConfig(12))
	b := NewModel(smallConfig(12))
	_ = synth.Synthetic(1024, 12) // app size is irrelevant to the model
	if a.NumParams() != b.NumParams() {
		t.Fatal("model size varies")
	}
}

func BenchmarkTrainStep16(b *testing.B) {
	app := synth.Synthetic(16, 13)
	traces := simTraces(b, app, 13, 8)
	m := NewModel(smallConfig(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(traces[:4], TrainOptions{Epochs: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCounterfactual(b *testing.B) {
	app := synth.Synthetic(64, 14)
	traces := simTraces(b, app, 14, 4)
	m := NewModel(smallConfig(14))
	m.SetNormals(traces)
	tr := traces[0]
	restore := map[int]bool{0: true, 1: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Counterfactual(tr, restore)
	}
}
