package modelserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// TestServingSteadyStateAllocs is the steady-state-serving allocation gate:
// a warm 4-trace POST through the /score handler with obs disabled — body
// read, decode, assembly, ScoreBatch and the JSON reply, plus the test's
// own recorder and request — must cost no per-request model load, no cold
// workspace, no fresh encoding and no tape re-growth. It measures 131 on 4
// traces of 20 spans (AllocsPerRun runs at GOMAXPROCS 1, so the batch
// scores inline); an encoding that stops being recycled costs six
// allocations per trace at least and trips the bound (215), a cold arena
// thousands.
func TestServingSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	obs.Disable()
	reg, _, query := servingFixture(t, 37, 4)
	var spans []*trace.Span
	for _, tr := range query {
		spans = append(spans, tr.Spans...)
	}
	body := scoreBody(t, spans)
	h := (&Server{Registry: reg}).Handler()
	status := http.StatusOK
	step := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/models/prod/latest/score", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			status = rec.Code
		}
	}
	// Warm-up: model cache, embedding cache, pooled body and workspaces.
	for j := 0; j < 3; j++ {
		step()
	}
	avg := testing.AllocsPerRun(50, step)
	if status != http.StatusOK {
		t.Fatalf("score status %d", status)
	}
	if avg > 140 {
		t.Fatalf("steady-state serving allocates %.1f times per request, want <= 140", avg)
	}
}
