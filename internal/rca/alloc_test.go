package rca

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestLocalizeSteadyStateAllocs is the allocation-regression guard for the
// localization hot path: one warm LocalizeDetailed on a fixed anomalous
// trace — candidate ranking, pruning, counterfactual session, restoration
// loop — must stay within a small per-query allocation budget. The budget
// is deliberately coarse (localisation legitimately allocates its session
// buffers, candidate sets and result slices per query); the guard exists
// to catch a lost cache or an accidental per-iteration re-encode, which
// shows up as an order-of-magnitude jump, not a few extra slices.
func TestLocalizeSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	f := newFixture(t, 17)
	svc := f.app.ServiceAtCallDepth(1)
	name := f.app.Services[svc].Name
	sample := f.anomalousSample(t, slowPlan(f.app, name, 60), name)
	if sample == nil {
		t.Skip("no anomalous sample")
	}
	tr := sample.Result.Trace
	step := func() {
		_ = f.loc.LocalizeDetailed(tr, f.slo)
	}
	// Warm-up: arena pool, encoder embeddings, map sizing.
	for i := 0; i < 4; i++ {
		step()
	}
	avg := testing.AllocsPerRun(50, step)
	// Budget: measured ~64 allocs/query on the seed fixture; the bound
	// leaves ~50% headroom. A per-counterfactual re-encode regression
	// costs hundreds of allocations and blows straight through it.
	const budget = 96
	if avg > budget {
		t.Fatalf("steady-state LocalizeDetailed allocates %.0f times per query, budget %d", avg, budget)
	}
	t.Logf("LocalizeDetailed: %.0f allocs/query (budget %d)", avg, budget)
}
