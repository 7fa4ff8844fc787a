package sleuth

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// endToEnd builds the full facade pipeline once for several tests.
func endToEnd(t *testing.T, seed uint64) (*World, *Model, *Analyzer, []*Trace) {
	t.Helper()
	app := NewSyntheticApp(16, seed)
	world := NewWorld(app, seed)
	normal, err := world.SimulateNormal(100)
	if err != nil {
		t.Fatal(err)
	}
	// Mix some unlabeled incidents into training, as production would.
	inc, err := world.SimulateIncident(nil, 20, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{EmbeddingDim: 8, Hidden: 24, Epochs: 3, LearningRate: 3e-3, Seed: seed}
	model, err := Train(append(append([]*Trace{}, normal...), inc.Traces...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.SetNormals(normal)
	analyzer := NewAnalyzer(model)
	analyzer.SetSLOs(SLOs(normal))
	return world, model, analyzer, normal
}

func TestFacadeEndToEnd(t *testing.T) {
	world, _, analyzer, _ := endToEnd(t, 1)
	// Inject a directed fault and analyze the resulting anomalies.
	svc := world.App.Services[world.App.ServiceAtCallDepth(1)].Name
	plan, err := world.InjectFault(svc, Fault{Type: chaos.FaultCPU, SlowFactor: 60})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := world.SimulateIncident(plan, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	var anomalous []*Trace
	for _, tr := range inc.Traces {
		if analyzer.IsAnomalous(tr) {
			anomalous = append(anomalous, tr)
		}
	}
	if len(anomalous) == 0 {
		t.Skip("no anomalies surfaced")
	}
	report := analyzer.Analyze(anomalous)
	if len(report.Diagnoses) == 0 {
		t.Fatal("no diagnoses")
	}
	if report.Inferences > len(anomalous) {
		t.Fatalf("inferences %d exceed traces %d", report.Inferences, len(anomalous))
	}
	// At least one diagnosis should blame the faulted service.
	found := false
	covered := 0
	for _, d := range report.Diagnoses {
		covered += len(d.TraceIDs)
		for _, s := range d.Services {
			if s == svc {
				found = true
			}
		}
	}
	if covered != len(anomalous) {
		t.Fatalf("diagnoses cover %d of %d traces", covered, len(anomalous))
	}
	if !found {
		t.Fatalf("no diagnosis blames %s", svc)
	}
}

func TestFacadeModelPersistence(t *testing.T) {
	_, model, _, normal := endToEnd(t, 3)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := model.Predict(normal[0])
	d2, _ := back.Predict(normal[0])
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("loaded model differs")
		}
	}
}

func TestFacadeFineTune(t *testing.T) {
	_, model, _, _ := endToEnd(t, 4)
	other := NewWorld(NewSyntheticApp(16, 99), 99)
	fresh, err := other.SimulateNormal(30)
	if err != nil {
		t.Fatal(err)
	}
	if err := FineTune(model, fresh, TrainConfig{Epochs: 1, LearningRate: 5e-4, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	// The fine-tuned model predicts on the new app without panics.
	d, e := model.Predict(fresh[0])
	if len(d) != fresh[0].Len() || len(e) != fresh[0].Len() {
		t.Fatal("prediction sizes wrong after fine-tune")
	}
}

func TestInjectFaultValidation(t *testing.T) {
	world := NewWorld(NewSyntheticApp(16, 5), 5)
	if _, err := world.InjectFault("nope", Fault{Type: chaos.FaultCPU, SlowFactor: 2}); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestSLOs(t *testing.T) {
	world := NewWorld(NewSyntheticApp(16, 6), 6)
	normal, err := world.SimulateNormal(50)
	if err != nil {
		t.Fatal(err)
	}
	slos := SLOs(normal)
	if len(slos) == 0 {
		t.Fatal("no SLOs derived")
	}
	for op, v := range slos {
		if v <= 0 {
			t.Fatalf("SLO for %s is %v", op, v)
		}
	}
}

// TestAnalyzeDeterministicAcrossGOMAXPROCS: the chunked encoding, the indexed
// distance matrix and the fanned-out localisation leave the report what one
// core produces — noise traces first in batch order, then clusters by
// ascending label, one inference per diagnosis, each noise diagnosis the
// result of a lone query.
func TestAnalyzeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	world, _, analyzer, _ := endToEnd(t, 3)
	var anomalous []*Trace
	for seed := uint64(20); seed < 23; seed++ {
		inc, err := world.SimulateIncident(nil, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range inc.Traces {
			if analyzer.IsAnomalous(tr) {
				anomalous = append(anomalous, tr)
			}
		}
	}
	testenv.SetGOMAXPROCS(t, 1)
	base := analyzer.Analyze(anomalous)
	for _, procs := range []int{2, 8} {
		testenv.SetGOMAXPROCS(t, procs)
		if got := analyzer.Analyze(anomalous); !reflect.DeepEqual(got, base) {
			t.Fatalf("GOMAXPROCS=%d: report differs from GOMAXPROCS=1:\n got %+v\nwant %+v", procs, got, base)
		}
	}

	if base.Inferences != len(base.Diagnoses) || base.Inferences < 3 {
		t.Fatalf("%d inferences for %d diagnoses; the test needs several queries to fan out", base.Inferences, len(base.Diagnoses))
	}
	byID := map[string]*Trace{}
	var batchOrder, noiseOrder []string
	for _, tr := range anomalous {
		byID[tr.TraceID] = tr
		batchOrder = append(batchOrder, tr.TraceID)
	}
	for i, d := range base.Diagnoses {
		if i > 0 && d.ClusterID < base.Diagnoses[i-1].ClusterID {
			t.Fatalf("diagnosis %d has cluster %d after cluster %d", i, d.ClusterID, base.Diagnoses[i-1].ClusterID)
		}
		if d.ClusterID >= 0 {
			continue
		}
		noiseOrder = append(noiseOrder, d.TraceIDs[0])
		if want := analyzer.Localize(byID[d.TraceIDs[0]]); !reflect.DeepEqual(d.Services, want) {
			t.Fatalf("noise trace %s diagnosed %v, lone query says %v", d.TraceIDs[0], d.Services, want)
		}
	}
	if len(noiseOrder) == 0 || len(noiseOrder) == len(base.Diagnoses) {
		t.Fatalf("%d noise diagnoses of %d; the test needs both kinds", len(noiseOrder), len(base.Diagnoses))
	}
	k := 0
	for _, id := range batchOrder {
		if k < len(noiseOrder) && noiseOrder[k] == id {
			k++
		}
	}
	if k != len(noiseOrder) {
		t.Fatalf("noise diagnoses %v are not in batch order", noiseOrder)
	}
}

// analyzeGoldenDiagnoses, analyzeGoldenInferences and analyzeGoldenHash
// pin TestAnalyzeGolden's suite: the number of diagnoses and GNN
// inferences over every window, and the FNV-64a hash of every Diagnosis.
const (
	analyzeGoldenDiagnoses  = 63
	analyzeGoldenInferences = 63
	analyzeGoldenHash       = 0x173cd3b65ca843bc
)

// TestAnalyzeGolden pins Analyze end to end, as TestRCASmokeGolden pins the
// localiser: on a fixed seed suite (two worlds, seeds 3 and 11; incidents
// 20–22 of 60 requests each, analysed window by window and then pooled),
// every Diagnosis — cluster label, member trace IDs, services, pods and
// nodes, in report order — must hash to the pinned constant. Any change to
// the distance, the HDBSCAN policy, medoid choice, the report order or the
// localiser moves it; a change that moves it on purpose says which
// diagnoses moved and why, and re-pins.
func TestAnalyzeGolden(t *testing.T) {
	h := fnv.New64a()
	diagnoses, inferences, clustered := 0, 0, 0
	for _, worldSeed := range []uint64{3, 11} {
		world, _, analyzer, _ := endToEnd(t, worldSeed)
		var windows [][]*Trace
		var pooled []*Trace
		for seed := uint64(20); seed < 23; seed++ {
			inc, err := world.SimulateIncident(nil, 60, seed)
			if err != nil {
				t.Fatal(err)
			}
			var window []*Trace
			for _, tr := range inc.Traces {
				if analyzer.IsAnomalous(tr) {
					window = append(window, tr)
				}
			}
			windows = append(windows, window)
			pooled = append(pooled, window...)
		}
		for w, window := range append(windows, pooled) {
			report := analyzer.Analyze(window)
			inferences += report.Inferences
			for _, d := range report.Diagnoses {
				diagnoses++
				if d.ClusterID >= 0 {
					clustered++
				}
				fmt.Fprintf(h, "%d/%d/%d:%s|%s|%s|%s\n", worldSeed, w, d.ClusterID,
					strings.Join(d.TraceIDs, ","), strings.Join(d.Services, ","),
					strings.Join(d.Pods, ","), strings.Join(d.Nodes, ","))
			}
		}
	}
	if clustered == 0 || clustered == diagnoses {
		t.Fatalf("%d clustered diagnoses of %d; the suite needs both kinds", clustered, diagnoses)
	}
	if diagnoses != analyzeGoldenDiagnoses || inferences != analyzeGoldenInferences || h.Sum64() != analyzeGoldenHash {
		t.Fatalf("analyze-golden: %d diagnoses, %d inferences, hash %#016x; pinned %d, %d, %#016x",
			diagnoses, inferences, h.Sum64(), analyzeGoldenDiagnoses, analyzeGoldenInferences, uint64(analyzeGoldenHash))
	}
	t.Logf("analyze-golden: %d diagnoses (%d clustered), %d inferences, as pinned", diagnoses, clustered, inferences)
}

func TestAnalyzeEmpty(t *testing.T) {
	_, _, analyzer, _ := endToEnd(t, 7)
	report := analyzer.Analyze(nil)
	if len(report.Diagnoses) != 0 || report.Inferences != 0 {
		t.Fatal("empty analysis not empty")
	}
}

// TestAnalyzeWritesOneSeriesPerMeasurement: a measurement is written once.
// A histogram reaches the series ring through the sampler's .p50/.p99/
// .count projections, so after one Analyze and one sweep no series may
// carry a histogram's own name — that would be a second, direct writer of
// the same measurement.
func TestAnalyzeWritesOneSeriesPerMeasurement(t *testing.T) {
	world, _, analyzer, _ := endToEnd(t, 3)
	inc, err := world.SimulateIncident(nil, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	obs.Disable()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	if report := analyzer.Analyze(inc.Traces); report.Inferences == 0 {
		t.Fatal("Analyze localised nothing; the test needs the clustering and rca stages to run")
	}
	sp := obs.NewSampler(reg, time.Millisecond)
	swept := make(chan struct{}, 1)
	sp.OnSweep(func(time.Time) {
		select {
		case swept <- struct{}{}:
		default:
		}
	})
	sp.Start()
	<-swept
	sp.Stop()

	for _, name := range []string{"cluster.core_distances_us", "cluster.mst_us", "rca.localize_us"} {
		if reg.LookupHistogram(name) == nil {
			t.Errorf("histogram %s not recorded; the test no longer covers its stage", name)
		}
	}
	// Every histogram, by its registered name: the exposition's HELP line
	// right before each "# TYPE … histogram" line carries it.
	var prom bytes.Buffer
	obs.WritePrometheus(&prom, reg)
	lines := strings.Split(prom.String(), "\n")
	var hists []string
	for i := 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "# TYPE ") && strings.HasSuffix(lines[i], " histogram") {
			hists = append(hists, strings.Fields(lines[i-1])[3])
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram in the exposition")
	}
	for _, name := range hists {
		if reg.LookupSeries(name) != nil {
			t.Errorf("series %s has a histogram's name: the measurement has two writers", name)
		}
		if reg.LookupSeries(name+".count") == nil {
			t.Errorf("histogram %s has no sampled .count series after a sweep", name)
		}
	}
}
