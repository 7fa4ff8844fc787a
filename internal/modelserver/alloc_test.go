package modelserver

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestServingSteadyStateAllocs is the steady-state-serving allocation gate:
// a warm request through the scoring queue on an idle model (the
// sequential-traffic common case) must cost only the queue seat and
// ScoreBatch's per-call constants — no per-request model load, no cold
// workspace, no fresh encoding, no tape re-growth. It measures 18 on 4
// traces (AllocsPerRun runs at GOMAXPROCS 1, so the batch scores inline); a
// workspace that stops being recycled costs six encoding allocations per
// trace at least and trips the bound, a cold arena thousands.
func TestServingSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	_, m, query := servingFixture(t, 37, 4)
	b := &batcher{m: m}
	step := func() {
		_, _, _ = b.Score(query)
	}
	// Warm-up: embedding cache, pooled workspaces.
	for j := 0; j < 3; j++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg > 32 {
		t.Fatalf("steady-state serving allocates %.1f times per run, want <= 32", avg)
	}
}
