package modelserver

import (
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/testenv"
)

// TestServingSteadyStateAllocs is the steady-state-serving allocation gate:
// a warm request through the batcher's solo fast path (the sequential-
// traffic common case) must cost only the per-trace constants of the
// single-pass score kernel — no per-request model load, no cold arenas, no
// tape re-growth. A regression on any of those shows up as hundreds to
// thousands of extra allocations and fails the bound at once.
func TestServingSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	_, m, query := servingFixture(t, 37, 4)
	b := newBatcher(m, ServeConfig{Batch: 16, Wait: time.Millisecond})
	step := func() {
		_, _, _ = b.Score(query)
	}
	// Warm-up: per-trace caches, pooled arenas.
	for j := 0; j < 3; j++ {
		step()
	}
	// Same ≤32-per-trace budget as core's predict/score gates, times 4
	// traces, plus a small batcher constant.
	if avg := testing.AllocsPerRun(50, step); avg > 32*4+16 {
		t.Fatalf("steady-state serving allocates %.1f times per run, want <= %d", avg, 32*4+16)
	}
}
