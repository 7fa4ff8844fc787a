package modelserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// servingFixture publishes a trained model and returns held-out query
// traces alongside the in-memory model for computing expected outputs.
func servingFixture(t *testing.T, seed uint64, nQuery int) (*Registry, *core.Model, []*trace.Trace) {
	t.Helper()
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	app := synth.Synthetic(16, seed)
	s := sim.New(app, sim.DefaultOptions(seed))
	res, err := s.Run(0, 20+nQuery)
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.Traces(res)
	m := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 16, Seed: seed})
	if _, err := m.Train(traces[:20], core.TrainOptions{Epochs: 1, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("prod", m, "synthetic-16", nil); err != nil {
		t.Fatal(err)
	}
	return reg, m, traces[20 : 20+nQuery]
}

// scoreVia posts one request's traces to srv and decodes the response.
func scoreVia(t *testing.T, url string, traces []*trace.Trace) ScoreResponse {
	t.Helper()
	var body ScoreRequest
	for _, tr := range traces {
		body.Spans = append(body.Spans, tr.Spans...)
	}
	payload, _ := json.Marshal(body)
	resp, err := http.Post(url+"/models/prod/latest/score", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status = %d", resp.StatusCode)
	}
	var out ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// expectResponse computes the unbatched reference ScoreResponse for one
// request directly on the in-memory model.
func expectResponse(m *core.Model, traces []*trace.Trace) ScoreResponse {
	sorted := append([]*trace.Trace(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TraceID < sorted[j].TraceID })
	resp := ScoreResponse{Results: make([]ScoreResult, len(sorted))}
	for i, tr := range sorted {
		dur, errp := m.Predict(tr)
		resp.Results[i] = ScoreResult{TraceID: tr.TraceID, DurScaled: dur, ErrProb: errp}
	}
	resp.MeanLoss = m.MeanLoss(sorted)
	return resp
}

// sameResponse compares two ScoreResponses bit-for-bit (JSON float64s
// round-trip exactly, so HTTP adds no tolerance).
func sameResponse(t *testing.T, tag string, got, want ScoreResponse) {
	t.Helper()
	if len(got.Results) != len(want.Results) || got.Skipped != want.Skipped {
		t.Fatalf("%s: shape %d/%d vs %d/%d", tag, len(got.Results), got.Skipped, len(want.Results), want.Skipped)
	}
	if got.MeanLoss != want.MeanLoss {
		t.Fatalf("%s: meanLoss %v != %v", tag, got.MeanLoss, want.MeanLoss)
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.TraceID != w.TraceID {
			t.Fatalf("%s result %d: trace %s != %s", tag, i, g.TraceID, w.TraceID)
		}
		for j := range w.DurScaled {
			if g.DurScaled[j] != w.DurScaled[j] || g.ErrProb[j] != w.ErrProb[j] {
				t.Fatalf("%s result %d span %d: prediction differs", tag, i, j)
			}
		}
	}
}

// TestBatchedScoreBitIdentical fires a storm of concurrent requests through
// the micro-batcher (solo bypass off, so everything coalesces) and checks
// every response byte-for-byte against the unbatched single-trace
// reference: batch composition must never leak into results.
func TestBatchedScoreBitIdentical(t *testing.T) {
	reg, m, query := servingFixture(t, 11, 24)
	srv := httptest.NewServer((&Server{
		Registry: reg,
		Serve:    ServeConfig{Batch: 8, Wait: 20 * time.Millisecond, noSolo: true},
	}).Handler())
	defer srv.Close()

	// 8 concurrent clients, 3 traces each.
	const clients = 8
	var wg sync.WaitGroup
	responses := make([]ScoreResponse, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			responses[c] = scoreVia(t, srv.URL, query[c*3:c*3+3])
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		sameResponse(t, fmt.Sprintf("client %d", c), responses[c], expectResponse(m, query[c*3:c*3+3]))
	}
}

// TestBatcherDeadlineFlush pins the deadline semantics: a lone queued
// request (solo bypass off) waits cfg.Wait — not less, not unboundedly
// more — and then flushes with reason "deadline".
func TestBatcherDeadlineFlush(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, m, query := servingFixture(t, 13, 2)

	const wait = 40 * time.Millisecond
	b := newBatcher(m, ServeConfig{Batch: 100, Wait: wait, noSolo: true})
	start := time.Now()
	durs, errs, losses := b.Score(query[:1])
	elapsed := time.Since(start)
	if len(durs) != 1 || len(errs) != 1 || len(losses) != 1 {
		t.Fatalf("result shape %d/%d/%d", len(durs), len(errs), len(losses))
	}
	if elapsed < wait {
		t.Fatalf("flushed after %v, before the %v deadline", elapsed, wait)
	}
	if elapsed > wait+2*time.Second {
		t.Fatalf("flushed after %v, way past the %v deadline", elapsed, wait)
	}
	if n := obs.C("modelserver.batch.flush_deadline").Value(); n != 1 {
		t.Fatalf("deadline flushes = %d, want 1", n)
	}
}

// TestBatcherSizeFlush: once pending traces reach Batch the flush happens
// immediately — nowhere near the (absurdly long) deadline.
func TestBatcherSizeFlush(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, m, query := servingFixture(t, 17, 4)

	b := newBatcher(m, ServeConfig{Batch: 4, Wait: time.Hour, noSolo: true})
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			durs, _, _ := b.Score(query[c : c+1])
			if len(durs) != 1 {
				t.Errorf("client %d: %d results", c, len(durs))
			}
		}(c)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("size flush took %v", elapsed)
	}
	if n := obs.C("modelserver.batch.flush_size").Value(); n < 1 {
		t.Fatal("no size-triggered flush recorded")
	}
	if n := obs.C("modelserver.batch.flush_deadline").Value() +
		obs.C("modelserver.batch.flush_size").Value(); n < 1 {
		t.Fatal("no flush recorded at all")
	}
}

// TestBatcherBatchOne: with Batch 1 a queued request (solo bypass off)
// crosses the size threshold on arrival and flushes itself — it never waits
// for the deadline.
func TestBatcherBatchOne(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, m, query := servingFixture(t, 18, 1)

	b := newBatcher(m, ServeConfig{Batch: 1, Wait: time.Hour, noSolo: true})
	if durs, _, _ := b.Score(query); len(durs) != 1 {
		t.Fatalf("%d results, want 1", len(durs))
	}
	if n := obs.C("modelserver.batch.flush_size").Value(); n != 1 {
		t.Fatalf("size flushes = %d, want 1", n)
	}
}

// TestScoreSinglePass is the op-count gate for serving: one /score request
// over n traces must run the score kernel exactly n times — one forward
// per trace yields both the predictions and the loss.
func TestScoreSinglePass(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	reg, _, query := servingFixture(t, 19, 6)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	scoreVia(t, srv.URL, query)
	if got := obs.C("core.score.traces").Value(); got != int64(len(query)) {
		t.Fatalf("score kernel ran %d traces, want %d", got, len(query))
	}
}

// TestScoreFeedsDefaultDriftRule pins the one consumer of the model-score
// distribution: every drift rule of the default model-server pack watches
// a series a scored request appends to.
func TestScoreFeedsDefaultDriftRule(t *testing.T) {
	obs.Disable()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	models, _, query := servingFixture(t, 20, 4)
	srv := httptest.NewServer((&Server{Registry: models}).Handler())
	defer srv.Close()

	scoreVia(t, srv.URL, query)
	drift := 0
	for _, r := range alert.ModelServerRules() {
		if r.Kind != alert.KindDrift {
			continue
		}
		drift++
		if s := reg.LookupSeries(r.Series); s == nil || s.Len() != 1 {
			t.Errorf("drift rule %s watches %q, which one /score request did not append to once", r.Name, r.Series)
		}
	}
	if drift == 0 {
		t.Fatal("default model-server pack has no drift rule")
	}
}

// TestConcurrentScoreStorm hammers one server from many goroutines with
// batching enabled — run under -race this is the serving path's
// thread-safety proof (shared cached model, shared batcher, demux).
func TestConcurrentScoreStorm(t *testing.T) {
	reg, m, query := servingFixture(t, 23, 16)
	srv := httptest.NewServer((&Server{
		Registry: reg,
		Serve:    ServeConfig{Batch: 6, Wait: time.Millisecond},
	}).Handler())
	defer srv.Close()

	const clients, rounds = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			slice := query[(c*2)%len(query) : (c*2)%len(query)+2]
			want := expectResponse(m, slice)
			for r := 0; r < rounds; r++ {
				sameResponse(t, fmt.Sprintf("client %d round %d", c, r), scoreVia(t, srv.URL, slice), want)
			}
		}(c)
	}
	wg.Wait()
}
