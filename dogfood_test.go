package sleuth

// Propagation smoke test (wired into `make verify`): collector and model
// server run in-process, one scored request carries a driver-side
// traceparent, and the result must be a single joined distributed trace —
// driver and model-server spans under one W3C trace ID — whose ring-resident
// half passes the collector's validation when re-ingested, so the pipeline
// can store and score its own execution.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/collector"
	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func TestPropagationSmoke(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)

	// Collector: the ingest sink the ring-resident self-trace is re-posted to.
	st := store.New()
	col := collector.New(st)
	defer col.Close()
	colSrv := httptest.NewServer(col.Handler())
	defer colSrv.Close()

	// Model server with one trained model.
	app := NewSyntheticApp(8, 11)
	world := NewWorld(app, 11)
	normal, err := world.SimulateNormal(24)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(normal, TrainConfig{EmbeddingDim: 6, Hidden: 16, Epochs: 1, LearningRate: 3e-3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := modelserver.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("prod", model, "smoke", nil); err != nil {
		t.Fatal(err)
	}
	msSrv := httptest.NewServer((&modelserver.Server{Registry: reg}).Handler())
	defer msSrv.Close()

	// Driver: one scored request under a driver-side root span whose
	// traceparent is carried by hand, as any external caller would.
	scoreBody, err := json.Marshal(modelserver.ScoreRequest{Spans: normal[0].Spans})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer("driver", obs.SpanContext{})
	root := tracer.Start("smoke", nil)
	req, err := http.NewRequest(http.MethodPost,
		msSrv.URL+"/models/prod/latest/score", bytes.NewReader(scoreBody))
	if err != nil {
		t.Fatal(err)
	}
	rootCtx := obs.SpanContext{TraceID: tracer.TraceID(), SpanID: tracer.Spans()[0].SpanID, Sampled: true}
	req.Header.Set(obs.TraceparentHeader, rootCtx.Traceparent())
	req.Header.Set(obs.RequestIDHeader, "smoke-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var scored modelserver.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&scored); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.End()
	if resp.StatusCode != http.StatusOK || len(scored.Results) == 0 {
		t.Fatalf("score request failed: status=%d results=%d", resp.StatusCode, len(scored.Results))
	}

	tid := tracer.TraceID()
	if got := resp.Header.Get("X-Trace-ID"); got != tid {
		t.Fatalf("model server answered trace %q, want the driver's %q — propagation broken", got, tid)
	}

	// One joined trace: driver spans + the ring-resident server spans
	// assemble into a single tree spanning both components.
	joined := append(tracer.Spans(), obs.Ring().Get(tid)...)
	tr, err := trace.Assemble(joined)
	if err != nil {
		t.Fatalf("joined trace does not assemble: %v", err)
	}
	if len(tr.Roots()) != 1 {
		t.Fatalf("joined trace has %d roots, want 1", len(tr.Roots()))
	}
	hasService := func(tr *trace.Trace, svc string) bool {
		for _, s := range tr.Services() {
			if s == svc {
				return true
			}
		}
		return false
	}
	for _, svc := range []string{"driver", "modelserver"} {
		if !hasService(tr, svc) {
			t.Fatalf("joined trace missing %s spans (has %v)", svc, tr.Services())
		}
	}

	// The latency histogram's exemplar points back at this trace.
	found := false
	for _, ex := range obs.H("modelserver.http.request_us").Exemplars() {
		found = found || ex.TraceID == tid
	}
	if !found {
		t.Fatalf("no request_us exemplar carries trace %s", tid)
	}

	// Re-ingest: the ring-resident server-side spans, re-encoded through the
	// OTLP codec and POSTed to the collector, pass its validation — the
	// pipeline stores Sleuth's own execution once, model-server spans intact.
	otlp, err := otel.EncodeOTLP(obs.Ring().Get(tid))
	if err != nil {
		t.Fatal(err)
	}
	ingestResp, err := http.Post(colSrv.URL+"/v1/traces", "application/json", bytes.NewReader(otlp))
	if err != nil {
		t.Fatal(err)
	}
	ingestResp.Body.Close()
	if ingestResp.StatusCode != http.StatusAccepted {
		t.Fatalf("collector answered %d to the re-posted self-trace, want 202", ingestResp.StatusCode)
	}
	col.Ingest.Flush()
	stored := st.Traces(store.Query{TraceIDs: []string{tid}})
	if len(stored) != 1 {
		t.Fatalf("collector store holds %d traces for %s, want 1", len(stored), tid)
	}
	if !hasService(stored[0], "modelserver") {
		t.Fatalf("ingested self-trace lost its spans: %v", stored[0].Services())
	}

	// Close the loop: the pipeline scores its own ingested trace.
	selfBody, err := json.Marshal(modelserver.ScoreRequest{Spans: stored[0].Spans})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(msSrv.URL+"/models/prod/latest/score", "application/json", bytes.NewReader(selfBody))
	if err != nil {
		t.Fatal(err)
	}
	var selfScored modelserver.ScoreResponse
	if err := json.NewDecoder(resp2.Body).Decode(&selfScored); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(selfScored.Results) != 1 || selfScored.Results[0].TraceID != tid {
		t.Fatalf("pipeline could not score its own trace: %+v", selfScored.Results)
	}
}
