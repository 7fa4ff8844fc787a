package rca

import (
	"runtime"
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
	// Budget: measured 23 allocs/query on the seed fixture (79 before
	// sessions were pooled): the candidate map and slices, the pruning
	// trail, the restoration map and the result. A session buffer that
	// stops being recycled, or a per-counterfactual re-encode, blows
	// straight through it.
	const budget = 48
	if avg > budget {
		t.Fatalf("steady-state LocalizeDetailed allocates %.0f times per query, budget %d", avg, budget)
	}
	t.Logf("LocalizeDetailed: %.0f allocs/query (budget %d)", avg, budget)
}

// TestLocalizeBytesSteadyStateAllocs bounds the bytes a warm query
// allocates on the Synthetic-256 queries of BenchmarkLocalize, averaged
// over all eight: a recycled session costs nothing per span, so what is
// left scales with the candidates, not with the trace. One session
// rebuilt per query costs tens of KB at this size.
func TestLocalizeBytesSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	f := newFixtureSized(t, 31, 256)
	queries := benchQueries(t, f, 8)
	round := func() {
		for _, tr := range queries {
			_ = f.loc.LocalizeDetailed(tr, f.slo)
		}
	}
	round() // warm-up: session pool, embeddings
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(queries))
	// Budget: measured 13 823 B/query (68–73 KB before sessions were
	// pooled); the bound is 1.5× that.
	const budget = 21000
	if perQuery > budget {
		t.Fatalf("warm Synthetic-256 LocalizeDetailed allocates %.0f B per query, budget %d", perQuery, budget)
	}
	t.Logf("LocalizeDetailed on Synthetic-256: %.0f B/query (budget %d)", perQuery, budget)
}
