package baselines

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Interface conformance.
var (
	_ rca.Algorithm = MaxDuration{}
	_ rca.Algorithm = (*Threshold)(nil)
	_ rca.Algorithm = (*TraceAnomaly)(nil)
	_ rca.Algorithm = (*Realtime)(nil)
	_ rca.Algorithm = (*Sage)(nil)
)

type world struct {
	app    *synth.App
	sim    *sim.Simulator
	train  []*trace.Trace
	slo    float64
	target string
	// anomalies are traces materially affected by the target fault.
	anomalies []*trace.Trace
}

func buildWorld(t testing.TB, seed uint64) *world {
	t.Helper()
	app := synth.Synthetic(16, seed)
	s := sim.New(app, sim.DefaultOptions(seed))
	res, err := s.Run(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	var durs []float64
	for _, r := range res {
		durs = append(durs, float64(r.Duration))
	}
	svc := app.ServiceAtCallDepth(1)
	name := app.Services[svc].Name
	plan := chaos.NewPlan(app,
		chaos.Fault{Type: chaos.FaultCPU, Level: chaos.LevelContainer, Target: name, SlowFactor: 60},
		chaos.Fault{Type: chaos.FaultMemory, Level: chaos.LevelContainer, Target: name, SlowFactor: 60},
		chaos.Fault{Type: chaos.FaultDisk, Level: chaos.LevelContainer, Target: name, SlowFactor: 60},
	)
	w := &world{app: app, sim: s, train: sim.Traces(res), slo: stats.Percentile(durs, 95), target: name}
	for id := 0; id < 80 && len(w.anomalies) < 8; id++ {
		sample, err := s.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample.RootServices) == 0 || float64(sample.Result.Duration) <= w.slo {
			continue
		}
		hit := false
		for _, rs := range sample.RootServices {
			if rs == name {
				hit = true
			}
		}
		if hit {
			w.anomalies = append(w.anomalies, sample.Result.Trace)
		}
	}
	if len(w.anomalies) == 0 {
		t.Fatal("no anomalous traces produced")
	}
	return w
}

// hitRate counts queries where the algorithm's prediction contains the
// injected service.
func hitRate(algo rca.Algorithm, w *world) (hits, total int) {
	for _, tr := range w.anomalies {
		total++
		for _, p := range algo.Localize(tr, w.slo) {
			if p == w.target {
				hits++
				break
			}
		}
	}
	return hits, total
}

func TestMaxDurationLatencyTrace(t *testing.T) {
	w := buildWorld(t, 1)
	algo := MaxDuration{}
	if err := algo.Prepare(w.train); err != nil {
		t.Fatal(err)
	}
	hits, total := hitRate(algo, w)
	if hits == 0 {
		t.Fatalf("Max never found the injected service (0/%d)", total)
	}
}

func TestMaxDurationErrorTrace(t *testing.T) {
	spans := []*trace.Span{
		{TraceID: "t", SpanID: "r", Service: "fe", Name: "h", Kind: trace.KindServer, Start: 0, End: 100, Error: true},
		{TraceID: "t", SpanID: "c", ParentID: "r", Service: "be", Name: "q", Kind: trace.KindClient, Start: 10, End: 90, Error: true},
	}
	tr, err := trace.Assemble(spans)
	if err != nil {
		t.Fatal(err)
	}
	got := MaxDuration{}.Localize(tr, 0)
	if len(got) != 1 || got[0] != "be" {
		t.Fatalf("error RCA = %v, want [be]", got)
	}
}

func TestThreshold(t *testing.T) {
	w := buildWorld(t, 2)
	algo := NewThreshold(99)
	if err := algo.Prepare(w.train); err != nil {
		t.Fatal(err)
	}
	hits, total := hitRate(algo, w)
	if hits == 0 {
		t.Fatalf("Threshold never found the injected service (0/%d)", total)
	}
	// Unseen operations are skipped silently.
	if got := algo.Localize(w.anomalies[0], w.slo); got == nil && !w.anomalies[0].HasError() {
		t.Log("threshold returned nothing — acceptable but suspicious")
	}
}

func TestTraceAnomaly(t *testing.T) {
	w := buildWorld(t, 3)
	algo := NewTraceAnomaly(3)
	algo.Epochs = 10
	if err := algo.Prepare(w.train); err != nil {
		t.Fatal(err)
	}
	if algo.VocabSize() == 0 {
		t.Fatal("empty vocabulary")
	}
	hits, total := hitRate(algo, w)
	if hits == 0 {
		t.Fatalf("TraceAnomaly never found the injected service (0/%d)", total)
	}
	// Anomaly detection: faulted traces should score above most normals.
	anomFlagged := 0
	for _, tr := range w.anomalies {
		if algo.IsAnomalous(tr) {
			anomFlagged++
		}
	}
	if anomFlagged == 0 {
		t.Error("VAE flagged no faulted trace as anomalous")
	}
	normFlagged := 0
	for _, tr := range w.train {
		if algo.IsAnomalous(tr) {
			normFlagged++
		}
	}
	if normFlagged > len(w.train)/5 {
		t.Errorf("VAE flagged %d/%d normal traces", normFlagged, len(w.train))
	}
}

func TestRealtime(t *testing.T) {
	w := buildWorld(t, 4)
	algo := NewRealtime()
	if err := algo.Prepare(w.train); err != nil {
		t.Fatal(err)
	}
	hits, total := hitRate(algo, w)
	if hits == 0 {
		t.Fatalf("Realtime never found the injected service (0/%d)", total)
	}
	// Always returns at most one service (most significant span).
	for _, tr := range w.anomalies {
		if got := algo.Localize(tr, w.slo); len(got) > 1 {
			t.Fatalf("Realtime returned %d services", len(got))
		}
	}
}

func TestSage(t *testing.T) {
	w := buildWorld(t, 5)
	algo := NewSage(5)
	algo.Epochs = 15
	if err := algo.Prepare(w.train); err != nil {
		t.Fatal(err)
	}
	if algo.NumNodes() == 0 {
		t.Fatal("Sage trained no nodes")
	}
	hits, total := hitRate(algo, w)
	if hits*2 < total {
		t.Fatalf("Sage found the injected service in only %d/%d queries", hits, total)
	}
}

func TestSageModelGrowsWithApp(t *testing.T) {
	small := buildWorld(t, 6)
	sageSmall := NewSage(6)
	sageSmall.Epochs = 1
	if err := sageSmall.Prepare(small.train[:20]); err != nil {
		t.Fatal(err)
	}
	bigApp := synth.Synthetic(64, 6)
	s := sim.New(bigApp, sim.DefaultOptions(6))
	res, err := s.Run(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	sageBig := NewSage(6)
	sageBig.Epochs = 1
	if err := sageBig.Prepare(sim.Traces(res)); err != nil {
		t.Fatal(err)
	}
	if sageBig.NumNodes() <= sageSmall.NumNodes() {
		t.Fatalf("Sage nodes did not grow: %d vs %d", sageBig.NumNodes(), sageSmall.NumNodes())
	}
	if sageBig.NumParams() <= sageSmall.NumParams() {
		t.Fatalf("Sage params did not grow: %d vs %d", sageBig.NumParams(), sageSmall.NumParams())
	}
}

func TestDeepTraLog(t *testing.T) {
	w := buildWorld(t, 7)
	dtl := NewDeepTraLog(7)
	dtl.Epochs = 5
	dtl.Train(w.train[:40])
	// Embeddings exist and have the right width.
	e := dtl.Embed(w.train[0])
	if len(e) != dtlEmbedDim {
		t.Fatalf("embedding width = %d", len(e))
	}
	// SVDD pulls normal traces toward the centre: the mean normal score
	// should not exceed the mean anomalous score.
	normScore, anomScore := 0.0, 0.0
	for _, tr := range w.train[:20] {
		normScore += dtl.SVDDScore(tr)
	}
	normScore /= 20
	for _, tr := range w.anomalies {
		anomScore += dtl.SVDDScore(tr)
	}
	anomScore /= float64(len(w.anomalies))
	if anomScore < normScore {
		t.Logf("warning: anomalous SVDD score %v below normal %v", anomScore, normScore)
	}
	// Distance matrix is symmetric with a zero diagonal.
	m := dtl.Distances(w.anomalies)
	for i := 0; i < m.N; i++ {
		if m.At(i, i) != 0 {
			t.Fatal("nonzero diagonal")
		}
		for j := 0; j < m.N; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatal("asymmetric distances")
			}
		}
	}
	_ = cluster.HDBSCAN(m, cluster.Options{MinClusterSize: 3, MinSamples: 2})
}

func TestOpStats(t *testing.T) {
	w := buildWorld(t, 8)
	os := newOpStats(100)
	for _, tr := range w.train {
		os.add(tr)
	}
	k := w.train[0].Spans[0].OpKey()
	mean, std, ok := os.meanStd(k)
	if !ok || mean <= 0 || std < 0 {
		t.Fatalf("meanStd(%q) = %v %v %v", k, mean, std, ok)
	}
	p, ok := os.percentile(k, 95)
	if !ok || p < mean/10 {
		t.Fatalf("percentile = %v %v", p, ok)
	}
	if _, _, ok := os.meanStd("nope"); ok {
		t.Fatal("unseen op reported stats")
	}
	if _, ok := os.percentile("nope", 95); ok {
		t.Fatal("unseen op reported percentile")
	}
}

func BenchmarkSagePrepare16(b *testing.B) {
	w := buildWorld(b, 9)
	for i := 0; i < b.N; i++ {
		algo := NewSage(uint64(i))
		algo.Epochs = 5
		if err := algo.Prepare(w.train[:30]); err != nil {
			b.Fatal(err)
		}
	}
}
