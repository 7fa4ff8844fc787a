package rca

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// benchQueries simulates a localisation workload against an app of the
// given scale: half the queries are SLO violations from randomly generated
// single-incident chaos plans (the loop usually normalises after restoring
// the true root), half come from a wide-blast plan that faults more
// services than MaxCandidates — the cascading-outage case, where no
// restoration subset the loop can afford clears every error and the
// candidate loop runs to exhaustion. Deployed localizers see both
// populations; the second is where per-query cost is maximal.
func benchQueries(b testing.TB, f *fixture, n int) []*trace.Trace {
	b.Helper()
	queries := make([]*trace.Trace, 0, n)
	for p := 0; len(queries) < n/2 && p < n*8; p++ {
		plan := chaos.GeneratePlan(f.app, chaos.DefaultPlanParams(), xrand.New(uint64(500+p)))
		for id := 0; id < 4 && len(queries) < n/2; id++ {
			sample, err := f.sim.SimulateWithTruth(p*10+id, plan)
			if err != nil {
				b.Fatal(err)
			}
			if float64(sample.Result.Duration) > f.slo || sample.Result.Errored {
				queries = append(queries, sample.Result.Trace)
			}
		}
	}
	wide := widePlan(f.app)
	for id := 2000; len(queries) < n && id < 2000+n*20; id++ {
		sample, err := f.sim.SimulateWithTruth(id, wide)
		if err != nil {
			b.Fatal(err)
		}
		if float64(sample.Result.Duration) > f.slo || sample.Result.Errored {
			queries = append(queries, sample.Result.Trace)
		}
	}
	if len(queries) < n {
		b.Fatalf("only %d/%d SLO-violating queries found", len(queries), n)
	}
	return queries
}

// widePlan builds a chaos plan that slows and errors more services than
// the localisation loop has restoration attempts (MaxCandidates), spread
// evenly across the app.
func widePlan(app *synth.App) *chaos.Plan {
	want := len(app.Services) / 2
	if min := DefaultOptions().MaxCandidates + 4; want < min {
		want = min
	}
	step := len(app.Services) / want
	if step < 1 {
		step = 1
	}
	var faults []chaos.Fault
	for svc := 0; svc < len(app.Services) && len(faults) < want; svc += step {
		faults = append(faults, chaos.Fault{
			Type: chaos.FaultCPU, Level: chaos.LevelContainer,
			Target: app.Services[svc].Name, SlowFactor: 3, ErrorProb: 0.9,
		})
	}
	return chaos.NewPlan(app, faults...)
}

// BenchmarkLocalize measures one localisation query across app scales
// with the small test model, and at Synthetic-256 with the shipped model
// shape (core.Config{}: embedding 32, hidden 64), whose GIN layers are
// the 68→64→5 kernels a deployed localizer runs.
func BenchmarkLocalize(b *testing.B) {
	for _, arm := range []struct {
		name string
		rpcs int
		cfg  *core.Config
	}{
		{"Synthetic-64", 64, nil},
		{"Synthetic-256", 256, nil},
		{"Synthetic-256-shipped", 256, &core.Config{Seed: 31}},
	} {
		f := benchFixture(b, 31, arm.rpcs, arm.cfg)
		queries := benchQueries(b, f, 8)
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = f.loc.Localize(queries[i%len(queries)], f.slo)
			}
		})
	}
}

// benchFixture is newFixtureSized, or newFixtureConfig when cfg is set.
func benchFixture(b *testing.B, seed uint64, rpcs int, cfg *core.Config) *fixture {
	if cfg == nil {
		return newFixtureSized(b, seed, rpcs)
	}
	return newFixtureConfig(b, seed, rpcs, *cfg)
}

// BenchmarkCounterfactualSession isolates the engine cost: a 6-iteration
// nested restoration sequence per op, one session for the sequence vs a
// fresh session per question, with the small test model and (the
// "shipped/" arms) the shipped model shape.
func BenchmarkCounterfactualSession(b *testing.B) {
	for _, arm := range []struct {
		prefix string
		cfg    *core.Config
	}{
		{"", nil},
		{"shipped/", &core.Config{Seed: 32}},
	} {
		f := benchFixture(b, 32, 256, arm.cfg)
		queries := benchQueries(b, f, 2)
		tr := queries[0]
		sets := make([]map[int]bool, 0, 6)
		cur := map[int]bool{}
		for i := 0; i < 6 && i < tr.Len(); i++ {
			cur[i] = true
			cp := make(map[int]bool, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			sets = append(sets, cp)
		}
		b.Run(arm.prefix+"fresh-session-per-question", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, set := range sets {
					_ = f.model.Counterfactual(tr, set)
				}
			}
		})
		b.Run(arm.prefix+"session", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := f.model.NewCounterfactualSession(tr)
				for _, set := range sets {
					_ = s.Counterfactual(set)
				}
				s.Close()
			}
		})
	}
}
