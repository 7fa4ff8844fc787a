package rca

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/testenv"
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

// rcaSmokeQueries, rcaSmokeHits and rcaSmokeHash pin TestRCASmokeGolden's
// suite: the number of SLO-violating queries, how many verdicts name the
// injected service, and the FNV-64a hash of every (seed, plan, id,
// Services) verdict.
const (
	rcaSmokeQueries = 171
	rcaSmokeHits    = 169
	rcaSmokeHash    = 0x774b344f74a47282
)

// TestRCASmokeGolden is the `make verify` rca-smoke gate: on a fixed seed
// suite (seeds 20–22; a slowdown plan and a CPU+error plan against a
// depth-1 service; the first 40 requests of each), the localiser's
// verdicts must hash to the pinned constant and name the injected service
// as often as pinned. Any change to ranking, the session's answers or the
// loop's stopping rule moves the hash; a change that moves it on purpose
// says which verdicts moved and why, and re-pins.
func TestRCASmokeGolden(t *testing.T) {
	h := fnv.New64a()
	queries, hits := 0, 0
	for _, seed := range []uint64{20, 21, 22} {
		f := newFixture(t, seed)
		svc := f.app.ServiceAtCallDepth(1)
		name := f.app.Services[svc].Name
		plans := []*chaos.Plan{
			slowPlan(f.app, name, 60),
			chaos.NewPlan(f.app, chaos.Fault{
				Type: chaos.FaultCPU, Level: chaos.LevelContainer,
				Target: name, SlowFactor: 2, ErrorProb: 0.9,
			}),
		}
		for pi, plan := range plans {
			for id := 0; id < 40; id++ {
				sample, err := f.sim.SimulateWithTruth(id, plan)
				if err != nil {
					t.Fatal(err)
				}
				if float64(sample.Result.Duration) <= f.slo && !sample.Result.Errored {
					continue
				}
				queries++
				got := f.loc.Localize(sample.Result.Trace, f.slo)
				fmt.Fprintf(h, "%d/%d/%d:%s\n", seed, pi, id, strings.Join(got, ","))
				for _, s := range got {
					if s == name {
						hits++
					}
				}
			}
		}
	}
	if queries < 50 {
		t.Fatalf("smoke suite too small: only %d anomalous queries", queries)
	}
	if queries != rcaSmokeQueries || hits != rcaSmokeHits || h.Sum64() != rcaSmokeHash {
		t.Fatalf("rca-smoke: %d queries, %d true-root hits, hash %#016x; pinned %d, %d, %#016x",
			queries, hits, h.Sum64(), rcaSmokeQueries, rcaSmokeHits, uint64(rcaSmokeHash))
	}
	t.Logf("rca-smoke: %d queries, verdicts as pinned, true-root hits %d", queries, hits)
}

// TestLocalizeBatchDeterministic checks that batch localisation returns,
// at GOMAXPROCS 1, 2 and 8, the results of lone LocalizeDetailed calls,
// also for fewer queries than workers and for none — under -race, the
// check that concurrent queries never share a pooled session.
func TestLocalizeBatchDeterministic(t *testing.T) {
	f := newFixture(t, 15)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	plan := slowPlan(f.app, name, 40)
	var qtraces []*trace.Trace
	var slos []float64
	for id := 0; id < 16; id++ {
		sample, err := f.sim.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		qtraces = append(qtraces, sample.Result.Trace)
		slos = append(slos, f.slo)
	}
	serial := make([]Result, len(qtraces))
	for i, tr := range qtraces {
		serial[i] = f.loc.LocalizeDetailed(tr, slos[i])
	}
	for _, procs := range []int{1, 2, 8} {
		testenv.SetGOMAXPROCS(t, procs)
		if got := f.loc.LocalizeDetailedBatch(qtraces, slos); !reflect.DeepEqual(got, serial) {
			t.Fatalf("GOMAXPROCS=%d: batch diverged from lone calls:\n%+v\nvs\n%+v", procs, got, serial)
		}
		if got := f.loc.LocalizeDetailedBatch(qtraces[:3], slos[:3]); !reflect.DeepEqual(got, serial[:3]) {
			t.Fatalf("GOMAXPROCS=%d, 3 queries: %+v, want %+v", procs, got, serial[:3])
		}
		if got := f.loc.LocalizeDetailedBatch(nil, nil); len(got) != 0 {
			t.Fatalf("GOMAXPROCS=%d: empty batch returned %v", procs, got)
		}
	}
}

// TestResultDoesNotMutateCallerSlice: the services slice handed to
// result() must come back in its original order.
func TestResultDoesNotMutateCallerSlice(t *testing.T) {
	f := newFixture(t, 16)
	res, err := f.sim.Run(700, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := res[0].Trace
	used := []string{"zeta-svc", "alpha-svc", "mid-svc"}
	orig := append([]string(nil), used...)
	out := f.loc.result(tr, used, true, 123)
	if !reflect.DeepEqual(used, orig) {
		t.Fatalf("result() mutated caller slice: %v (was %v)", used, orig)
	}
	for i := 1; i < len(out.Services); i++ {
		if out.Services[i-1] > out.Services[i] {
			t.Fatalf("Services not sorted: %v", out.Services)
		}
	}
}

// TestNewLocalizerMergesOptions: NewLocalizer fills a zero MaxCandidates
// from DefaultOptions and never rewrites what the caller set.
func TestNewLocalizerMergesOptions(t *testing.T) {
	def := DefaultOptions()
	cases := []struct {
		name     string
		in, want Options
	}{
		{"zero value takes every default", Options{}, def},
		{"max candidates only", Options{MaxCandidates: 3}, Options{MaxCandidates: 3}},
		{"fully specified", Options{MaxCandidates: 2}, Options{MaxCandidates: 2}},
		{"defaults pass through", def, def},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := NewLocalizer(nil, c.in).Opts; got != c.want {
				t.Fatalf("NewLocalizer(%+v).Opts = %+v, want %+v", c.in, got, c.want)
			}
		})
	}
}

// TestLocalizeClusteredPropagatesMedoidVerdicts pools the anomalous
// traces of two fault plans into one batch and runs the §3.3 loop under
// the shipped policy: every trace falls in exactly one group, clustering
// saves inferences, every group's Result is a lone LocalizeDetailed of its
// medoid (or of the noise trace itself), and the F1 of the propagated
// verdicts stays within 0.35 of localising every trace alone.
func TestLocalizeClusteredPropagatesMedoidVerdicts(t *testing.T) {
	f := newFixtureSized(t, 8, 64)
	slowName := f.app.Services[f.app.ServiceAtCallDepth(1)].Name
	errName := f.app.Services[f.app.ServiceAtCallDepth(2)].Name
	plans := []*chaos.Plan{
		slowPlan(f.app, slowName, 60),
		chaos.NewPlan(f.app, chaos.Fault{
			Type: chaos.FaultCPU, Level: chaos.LevelContainer,
			Target: errName, SlowFactor: 2, ErrorProb: 0.9,
		}),
	}
	var traces []*trace.Trace
	var slos []float64
	var truth [][]string
	for pi, plan := range plans {
		for id := pi * 1000; id < pi*1000+80; id++ {
			sample, err := f.sim.SimulateWithTruth(id, plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(sample.RootServices) == 0 || (float64(sample.Result.Duration) <= f.slo && !sample.Result.Errored) {
				continue
			}
			traces = append(traces, sample.Result.Trace)
			slos = append(slos, f.slo)
			truth = append(truth, sample.RootServices)
		}
	}
	if len(traces) < 40 {
		t.Fatalf("only %d anomalous traces; the test needs 40", len(traces))
	}
	m := cluster.Pairwise(cluster.TraceSets(traces, cluster.DefaultMaxAncestors))
	opts := cluster.DefaultOptions()
	groups := f.loc.LocalizeClustered(traces, slos, m, opts)
	if len(groups) >= len(traces) {
		t.Fatalf("%d groups for %d traces: clustering saved no inference", len(groups), len(traces))
	}
	medoids := cluster.Medoids(m, cluster.HDBSCAN(m, opts))
	seen := make([]int, len(traces))
	var solo, propagated confusion
	for gi, g := range groups {
		if gi > 0 && g.Label < groups[gi-1].Label {
			t.Fatalf("group %d has label %d after label %d", gi, g.Label, groups[gi-1].Label)
		}
		query := g.Members[0]
		if g.Label >= 0 {
			query = medoids[g.Label]
		} else if len(g.Members) != 1 {
			t.Fatalf("noise group %d has %d members", gi, len(g.Members))
		}
		if want := f.loc.LocalizeDetailed(traces[query], slos[query]); !reflect.DeepEqual(g.Result, want) {
			t.Fatalf("group %d (label %d): result %+v, lone query of trace %d says %+v", gi, g.Label, g.Result, query, want)
		}
		isMember := false
		for _, i := range g.Members {
			seen[i]++
			isMember = isMember || i == query
			propagated.add(g.Result.Services, truth[i])
			solo.add(f.loc.Localize(traces[i], slos[i]), truth[i])
		}
		if !isMember {
			t.Fatalf("group %d: query trace %d is not a member", gi, query)
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("trace %d falls in %d groups, want exactly 1", i, n)
		}
	}
	t.Logf("%d traces in %d groups; F1 solo %.2f, propagated %.2f", len(traces), len(groups), solo.f1(), propagated.f1())
	if propagated.f1() < solo.f1()-0.35 {
		t.Fatalf("propagated F1 %.2f, solo %.2f: clustering destroyed accuracy", propagated.f1(), solo.f1())
	}
}

// confusion counts root-cause set overlap across queries (eval's §6.1.5
// counts, which this package cannot import).
type confusion struct{ tp, fp, fn int }

func (c *confusion) add(pred, real []string) {
	inReal := map[string]bool{}
	for _, r := range real {
		inReal[r] = true
	}
	for _, p := range pred {
		if inReal[p] {
			c.tp++
			delete(inReal, p)
		} else {
			c.fp++
		}
	}
	c.fn += len(inReal)
}

func (c *confusion) f1() float64 { return 2 * float64(c.tp) / float64(2*c.tp+c.fp+c.fn) }
