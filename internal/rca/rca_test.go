package rca

import (
	"reflect"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// fixture bundles a trained localizer with app simulation machinery.
type fixture struct {
	app   *synth.App
	sim   *sim.Simulator
	model *core.Model
	loc   *Localizer
	slo   float64
}

func newFixture(t testing.TB, seed uint64) *fixture {
	t.Helper()
	return newFixtureSized(t, seed, 16)
}

// newFixtureSized builds the fixture against a synthetic app of the given
// RPC count (benchmarks sweep the app scale).
func newFixtureSized(t testing.TB, seed uint64, rpcs int) *fixture {
	t.Helper()
	app := synth.Synthetic(rpcs, seed)
	s := sim.New(app, sim.DefaultOptions(seed))
	normalRes, err := s.Run(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	normal := sim.Traces(normalRes)
	// Production-like training mix: mostly normal plus unlabeled incidents.
	mixed := append([]*trace.Trace{}, normal...)
	for b := 0; b < 6; b++ {
		plan := chaos.GeneratePlan(app, chaos.DefaultPlanParams(), xrand.New(seed+uint64(100+b)))
		res, err := s.RunWithInjector(1000+b*10, 8, chaos.NewInjector(app, plan))
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, sim.Traces(res)...)
	}
	m := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 24, Seed: seed})
	if _, err := m.Train(mixed, core.TrainOptions{Epochs: 3, LearningRate: 3e-3, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	m.SetNormals(normal)
	// SLO: p95 of normal root durations.
	var durs []float64
	for _, r := range normalRes {
		durs = append(durs, float64(r.Duration))
	}
	return &fixture{
		app:   app,
		sim:   s,
		model: m,
		loc:   NewLocalizer(m, DefaultOptions()),
		slo:   stats.Percentile(durs, 95),
	}
}

// anomalousSample finds a request materially affected by the plan.
func (f *fixture) anomalousSample(t testing.TB, plan *chaos.Plan, want string) *sim.Sample {
	t.Helper()
	for id := 0; id < 80; id++ {
		sample, err := f.sim.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample.RootServices) == 0 {
			continue
		}
		hit := false
		for _, s := range sample.RootServices {
			if s == want {
				hit = true
			}
		}
		violates := float64(sample.Result.Duration) > f.slo || sample.Result.Errored
		if hit && violates {
			return sample
		}
	}
	return nil
}

func slowPlan(app *synth.App, svcName string, factor float64) *chaos.Plan {
	return chaos.NewPlan(app,
		chaos.Fault{Type: chaos.FaultCPU, Level: chaos.LevelContainer, Target: svcName, SlowFactor: factor},
		chaos.Fault{Type: chaos.FaultMemory, Level: chaos.LevelContainer, Target: svcName, SlowFactor: factor},
		chaos.Fault{Type: chaos.FaultDisk, Level: chaos.LevelContainer, Target: svcName, SlowFactor: factor},
	)
}

func TestCandidatesRankFaultedServiceFirst(t *testing.T) {
	f := newFixture(t, 1)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	sample := f.anomalousSample(t, slowPlan(f.app, name, 60), name)
	if sample == nil {
		t.Skip("no anomalous sample found")
	}
	cands := f.loc.Candidates(sample.Result.Trace)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].service != name {
		t.Fatalf("top candidate = %s (score %v), want %s", cands[0].service, cands[0].score, name)
	}
}

func TestLocalizeFindsInjectedService(t *testing.T) {
	f := newFixture(t, 2)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	plan := slowPlan(f.app, name, 60)
	found, total := 0, 0
	for id := 0; id < 60 && total < 10; id++ {
		sample, err := f.sim.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample.RootServices) == 0 || float64(sample.Result.Duration) <= f.slo {
			continue
		}
		total++
		pred := f.loc.Localize(sample.Result.Trace, f.slo)
		for _, p := range pred {
			if p == name {
				found++
			}
		}
	}
	if total == 0 {
		t.Skip("no anomalous samples")
	}
	if found*2 < total {
		t.Fatalf("found the injected service in only %d/%d queries", found, total)
	}
}

func TestLocalizeDetailedInstanceMapping(t *testing.T) {
	f := newFixture(t, 3)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	sample := f.anomalousSample(t, slowPlan(f.app, name, 60), name)
	if sample == nil {
		t.Skip("no anomalous sample")
	}
	res := f.loc.LocalizeDetailed(sample.Result.Trace, f.slo)
	if len(res.Services) == 0 {
		t.Fatal("no services localized")
	}
	if len(res.Pods) == 0 || len(res.Nodes) == 0 {
		t.Fatalf("instance mapping empty: %+v", res)
	}
	// Every reported pod belongs to a reported service.
	svcSet := map[string]bool{}
	for _, s := range res.Services {
		svcSet[s] = true
	}
	for _, sp := range sample.Result.Trace.Spans {
		if svcSet[sp.Service] {
			okPod := false
			for _, p := range res.Pods {
				if p == sp.Pod {
					okPod = true
				}
			}
			if !okPod {
				t.Fatalf("pod %s of service %s missing from result", sp.Pod, sp.Service)
			}
		}
	}
}

func TestLocalizeErrorTrace(t *testing.T) {
	f := newFixture(t, 4)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	plan := chaos.NewPlan(f.app, chaos.Fault{
		Type: chaos.FaultCPU, Level: chaos.LevelContainer,
		Target: name, SlowFactor: 2, ErrorProb: 0.95,
	})
	found, total := 0, 0
	for id := 0; id < 60 && total < 8; id++ {
		sample, err := f.sim.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !sample.Result.Errored || len(sample.RootServices) == 0 {
			continue
		}
		total++
		for _, p := range f.loc.Localize(sample.Result.Trace, f.slo) {
			if p == name {
				found++
			}
		}
	}
	if total == 0 {
		t.Skip("no error samples")
	}
	if found*2 < total {
		t.Fatalf("error RCA found the service in only %d/%d queries", found, total)
	}
}

func TestLocalizeBoundedCandidates(t *testing.T) {
	f := newFixture(t, 5)
	// Any normal trace: localization must return at most MaxCandidates
	// services and not panic.
	res, err := f.sim.Run(500, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		pred := f.loc.Localize(r.Trace, f.slo)
		if len(pred) > f.loc.Opts.MaxCandidates {
			t.Fatalf("predicted %d services, cap is %d", len(pred), f.loc.Opts.MaxCandidates)
		}
	}
}

func TestPrepareRefreshesNormals(t *testing.T) {
	f := newFixture(t, 6)
	before := f.model.NormalsSize()
	if err := f.loc.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	if f.model.NormalsSize() != 0 {
		t.Fatalf("Prepare(nil) left %d normals (was %d)", f.model.NormalsSize(), before)
	}
}

// TestLocalizeEmptyTrace: a trace without spans has no candidates and must
// not open a counterfactual session (an encoding needs at least one row).
func TestLocalizeEmptyTrace(t *testing.T) {
	f := newFixture(t, 18)
	if got := f.loc.LocalizeDetailed(&trace.Trace{}, f.slo); !reflect.DeepEqual(got, Result{}) {
		t.Fatalf("empty trace: %+v, want the zero Result", got)
	}
}
