package rca

import (
	"reflect"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// faultFor builds a representative container-level fault of the given
// family against one service.
func faultFor(ft chaos.FaultType, target string) chaos.Fault {
	f := chaos.Fault{Type: ft, Level: chaos.LevelContainer, Target: target, SlowFactor: 40}
	if ft == chaos.FaultNetwork {
		f.NetLatencyMicros = 200_000
	}
	return f
}

// TestPruneNeverCutsTrueRoot is the safety property behind default-on
// pruning: across every chaos fault family, whenever a ground-truth root
// service appears in the candidate list of an SLO-violating trace, the
// pruning stage must keep it.
func TestPruneNeverCutsTrueRoot(t *testing.T) {
	f := newFixture(t, 11)
	checked := 0
	for fi, ft := range chaos.AllFaultTypes {
		svc := f.app.ServiceAtCallDepth(1)
		name := f.app.Services[svc].Name
		plan := chaos.NewPlan(f.app, faultFor(ft, name))
		for id := 0; id < 60; id++ {
			sample, err := f.sim.SimulateWithTruth(id*4+fi, plan)
			if err != nil {
				t.Fatal(err)
			}
			violates := float64(sample.Result.Duration) > f.slo || sample.Result.Errored
			if !violates || len(sample.RootServices) == 0 {
				continue
			}
			tr := sample.Result.Trace
			cands := f.loc.Candidates(tr)
			inCands := map[string]bool{}
			for _, c := range cands {
				inCands[c.service] = true
			}
			kept, decisions := f.loc.prune(tr, f.model.SpanNormals(tr, nil), cands)
			keptSet := map[string]bool{}
			for _, c := range kept {
				keptSet[c.service] = true
			}
			for _, root := range sample.RootServices {
				if !inCands[root] {
					continue
				}
				checked++
				if !keptSet[root] {
					var why PruneDecision
					for _, d := range decisions {
						if d.Service == root {
							why = d
						}
					}
					t.Fatalf("fault %s: pruning cut true root %s (rule=%s stat=%.2f thr=%.2f)",
						ft, root, why.Rule, why.Statistic, why.Threshold)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no anomalous samples with candidate-listed roots")
	}
}

// TestPruneDecisionsCoverAllCandidates checks the audit trail: one
// decision per input candidate, keep rules on kept entries, cut reasons on
// cut ones, and the kept list preserving rank order.
func TestPruneDecisionsCoverAllCandidates(t *testing.T) {
	f := newFixture(t, 12)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	sample := f.anomalousSample(t, slowPlan(f.app, name, 60), name)
	if sample == nil {
		t.Skip("no anomalous sample")
	}
	tr := sample.Result.Trace
	cands := f.loc.Candidates(tr)
	kept, decisions := f.loc.prune(tr, f.model.SpanNormals(tr, nil), cands)
	if len(decisions) != len(cands) {
		t.Fatalf("decisions %d != candidates %d", len(decisions), len(cands))
	}
	if len(kept) == 0 || kept[0].service != cands[0].service {
		t.Fatalf("top-ranked candidate not kept first: %+v", kept)
	}
	if decisions[0].Rule != RuleTop || !decisions[0].Kept {
		t.Fatalf("rank-0 decision should be the top rule: %+v", decisions[0])
	}
	ki := 0
	for i, d := range decisions {
		if d.Service != cands[i].service {
			t.Fatalf("decision %d service %s != candidate %s", i, d.Service, cands[i].service)
		}
		switch d.Rule {
		case RuleTop, RuleError, RuleDuration:
			if !d.Kept {
				t.Fatalf("keep rule %q on a cut candidate: %+v", d.Rule, d)
			}
			if ki >= len(kept) || kept[ki].service != d.Service {
				t.Fatalf("kept order broken at %d: %+v", i, d)
			}
			ki++
		case RuleLowZ, RuleUnreachable:
			if d.Kept {
				t.Fatalf("cut rule %q on a kept candidate: %+v", d.Rule, d)
			}
		default:
			t.Fatalf("unknown rule %q", d.Rule)
		}
	}
	if ki != len(kept) {
		t.Fatalf("kept %d candidates but %d keep decisions", len(kept), ki)
	}
}

// TestLocalizeExplainArtifact checks LocalizeDetailed surfaces the
// pruning audit trail when Explain is on and omits it otherwise.
func TestLocalizeExplainArtifact(t *testing.T) {
	f := newFixture(t, 13)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	sample := f.anomalousSample(t, slowPlan(f.app, name, 60), name)
	if sample == nil {
		t.Skip("no anomalous sample")
	}
	tr := sample.Result.Trace
	res := f.loc.LocalizeDetailed(tr, f.slo)
	if res.Pruning != nil {
		t.Fatalf("Pruning recorded without Explain: %+v", res.Pruning)
	}
	opts := f.loc.Opts
	opts.Explain = true
	explained := NewLocalizer(f.model, opts).LocalizeDetailed(tr, f.slo)
	if len(explained.Pruning) == 0 {
		t.Fatal("Explain produced no pruning decisions")
	}
	if !reflect.DeepEqual(explained.Services, res.Services) {
		t.Fatalf("Explain changed the prediction: %v vs %v", explained.Services, res.Services)
	}
	cut := 0
	for _, d := range explained.Pruning {
		if !d.Kept {
			cut++
		}
	}
	if cut != explained.PrunedCandidates {
		t.Fatalf("PrunedCandidates=%d but %d cut decisions", explained.PrunedCandidates, cut)
	}
}

// TestRCASmokeEquivalence is the `make verify` rca-smoke gate: on the
// fixed seed suite below, the pruned localiser must predict root-cause
// sets identical to the unpruned one, query by query, across slowdown and
// error fault plans — so default-on pruning provably costs no accuracy on
// the seeded eval traces. (Universal set-equality is not a property real
// pruning can have: a marginal trace can normalise only once a
// statistically-normal candidate is restored, in which case the pruned
// answer is the higher-precision one. The fixed suite pins the
// overwhelmingly common agreeing behaviour; DESIGN.md §15 documents the
// edge.)
func TestRCASmokeEquivalence(t *testing.T) {
	compared, trueRootPruned, trueRootUnpruned := 0, 0, 0
	for _, seed := range []uint64{20, 21, 22} {
		f := newFixture(t, seed)
		base := f.loc.Opts
		prunedOpts, unprunedOpts := base, base
		prunedOpts.Prune = true
		unprunedOpts.Prune = false
		pruned := NewLocalizer(f.model, prunedOpts)
		unpruned := NewLocalizer(f.model, unprunedOpts)
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
				violates := float64(sample.Result.Duration) > f.slo || sample.Result.Errored
				if !violates {
					continue
				}
				compared++
				tr := sample.Result.Trace
				a := pruned.Localize(tr, f.slo)
				b := unpruned.Localize(tr, f.slo)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("seed %d plan %d trace %d: pruned %v != unpruned %v", seed, pi, id, a, b)
				}
				for _, s := range a {
					if s == name {
						trueRootPruned++
					}
				}
				for _, s := range b {
					if s == name {
						trueRootUnpruned++
					}
				}
			}
		}
	}
	if compared < 50 {
		t.Fatalf("smoke suite too small: only %d anomalous queries", compared)
	}
	if trueRootPruned != trueRootUnpruned {
		t.Fatalf("pruned accuracy %d/%d != unpruned %d/%d",
			trueRootPruned, compared, trueRootUnpruned, compared)
	}
	t.Logf("rca-smoke: %d queries, identical sets, true-root hits %d", compared, trueRootPruned)
}

// TestLocalizeBatchDeterministicWithPruning checks batch localisation with
// pruning on returns identical predictions for workers 1, 2 and 8, for fewer
// queries than workers, and the results of lone LocalizeDetailed calls —
// under -race, the check that concurrent queries never share a pooled
// session.
func TestLocalizeBatchDeterministicWithPruning(t *testing.T) {
	f := newFixture(t, 15)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	plan := slowPlan(f.app, name, 40)
	queries := 0
	var qtraces []*trace.Trace
	var slos []float64
	for id := 0; id < 40 && queries < 16; id++ {
		sample, err := f.sim.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		qtraces = append(qtraces, sample.Result.Trace)
		slos = append(slos, f.slo)
		queries++
	}
	if !f.loc.Opts.Prune {
		t.Fatal("fixture localiser should have pruning on by default")
	}
	ref := f.loc.LocalizeBatch(qtraces, slos, 1)
	for _, workers := range []int{2, 8} {
		got := f.loc.LocalizeBatch(qtraces, slos, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from workers=1:\n%v\nvs\n%v", workers, got, ref)
		}
	}
	// Fewer queries than workers, and none at all.
	if got := f.loc.LocalizeBatch(qtraces[:3], slos[:3], 8); !reflect.DeepEqual(got, ref[:3]) {
		t.Fatalf("3 queries on 8 workers: %v, want %v", got, ref[:3])
	}
	if got := f.loc.LocalizeBatch(nil, nil, 8); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
	// The detailed batch is the serial run of lone calls, query by query,
	// on any number of workers sharing the session pool.
	serial := make([]Result, len(qtraces))
	for i, tr := range qtraces {
		serial[i] = f.loc.LocalizeDetailed(tr, slos[i])
	}
	for _, workers := range []int{0, 8} {
		for i, res := range f.loc.LocalizeDetailedBatch(qtraces, slos, workers) {
			if !reflect.DeepEqual(res, serial[i]) {
				t.Fatalf("workers=%d query %d: batch %+v, lone call %+v", workers, i, res, serial[i])
			}
		}
	}
}

// TestResultDoesNotMutateCallerSlice pins the satellite fix: the services
// slice handed to result() must come back in its original order.
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

// TestNewLocalizerMergesOptions: NewLocalizer fills zero numeric fields
// from DefaultOptions one by one and never rewrites what the caller set —
// booleans included.
func TestNewLocalizerMergesOptions(t *testing.T) {
	def := DefaultOptions()
	cases := []struct {
		name     string
		in, want Options
	}{
		{"zero value keeps booleans off", Options{},
			Options{MaxCandidates: def.MaxCandidates, ErrThreshold: def.ErrThreshold,
				ErrScoreWeight: def.ErrScoreWeight, PruneZ: def.PruneZ}},
		{"explain only", Options{Explain: true},
			Options{MaxCandidates: def.MaxCandidates, ErrThreshold: def.ErrThreshold,
				ErrScoreWeight: def.ErrScoreWeight, PruneZ: def.PruneZ, Explain: true}},
		{"unpruned with threshold", Options{Prune: false, ErrThreshold: 0.3},
			Options{MaxCandidates: def.MaxCandidates, ErrThreshold: 0.3,
				ErrScoreWeight: def.ErrScoreWeight, PruneZ: def.PruneZ}},
		{"prune without z", Options{MaxCandidates: 3, Prune: true},
			Options{MaxCandidates: 3, ErrThreshold: def.ErrThreshold,
				ErrScoreWeight: def.ErrScoreWeight, Prune: true, PruneZ: def.PruneZ}},
		{"fully specified", Options{MaxCandidates: 2, ErrThreshold: 0.7, ErrScoreWeight: 1, Prune: true, PruneZ: 2.5, Explain: true},
			Options{MaxCandidates: 2, ErrThreshold: 0.7, ErrScoreWeight: 1, Prune: true, PruneZ: 2.5, Explain: true}},
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
