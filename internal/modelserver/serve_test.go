package modelserver

import (
	"bytes"
	"encoding/gob"
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
// the scoring queue and checks every response byte-for-byte against the
// unbatched single-trace reference: batch composition must never leak into
// results.
func TestBatchedScoreBitIdentical(t *testing.T) {
	reg, m, query := servingFixture(t, 11, 24)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
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

// TestQueueIdleRequestScoresAtOnce: a lone request on an idle model is
// scored by exactly one ScoreBatch call of its own traces and records a
// queue wait of 0.
func TestQueueIdleRequestScoresAtOnce(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, m, query := servingFixture(t, 13, 3)

	b := &batcher{m: m}
	durs, errs, losses := b.Score(query)
	if len(durs) != 3 || len(errs) != 3 || len(losses) != 3 {
		t.Fatalf("result shape %d/%d/%d", len(durs), len(errs), len(losses))
	}
	if n := obs.H("core.score.batch_us").Count(); n != 1 {
		t.Fatalf("ScoreBatch calls = %d, want 1", n)
	}
	size := obs.H("modelserver.batch.size")
	if size.Count() != 1 || size.Sum() != 3 {
		t.Fatalf("batch.size: %d observations summing to %v, want one of 3", size.Count(), size.Sum())
	}
	wait := obs.H("modelserver.batch.queue_wait_us")
	if wait.Count() != 1 || wait.Sum() != 0 {
		t.Fatalf("queue_wait_us: %d observations summing to %v, want one of 0", wait.Count(), wait.Sum())
	}
}

// TestQueueGroupCommit holds one flush in progress and queues requests
// behind it: when the flush ends they must all be scored by the next
// ScoreBatch call, and each reply must equal the unbatched reference.
func TestQueueGroupCommit(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, m, query := servingFixture(t, 17, 9)

	b := &batcher{m: m, busy: true} // a flush in progress
	const waiters = 4
	slices := [waiters][]*trace.Trace{query[0:1], query[1:3], query[3:6], query[6:9]}
	got := make([]ScoreResponse, waiters)
	var wg sync.WaitGroup
	for c := range slices {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sorted := append([]*trace.Trace(nil), slices[c]...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].TraceID < sorted[j].TraceID })
			durs, errs, losses := b.Score(sorted)
			resp := ScoreResponse{Results: make([]ScoreResult, len(sorted))}
			for i, tr := range sorted {
				resp.Results[i] = ScoreResult{TraceID: tr.TraceID, DurScaled: durs[i], ErrProb: errs[i]}
				resp.MeanLoss += losses[i]
			}
			resp.MeanLoss /= float64(len(losses))
			got[c] = resp
		}(c)
	}
	for queued := 0; queued < waiters; {
		time.Sleep(time.Millisecond)
		b.mu.Lock()
		queued = len(b.pending)
		b.mu.Unlock()
	}
	if n := obs.H("core.score.batch_us").Count(); n != 0 {
		t.Fatalf("%d ScoreBatch calls while the flush was held, want 0", n)
	}
	b.release() // the held flush ends
	wg.Wait()

	if n := obs.H("core.score.batch_us").Count(); n != 1 {
		t.Fatalf("ScoreBatch calls = %d, want 1", n)
	}
	size := obs.H("modelserver.batch.size")
	if size.Count() != 1 || size.Sum() != float64(len(query)) {
		t.Fatalf("batch.size: %d observations summing to %v, want one of %d", size.Count(), size.Sum(), len(query))
	}
	if n := obs.H("modelserver.batch.queue_wait_us").Count(); n != waiters {
		t.Fatalf("queue_wait_us observations = %d, want %d", n, waiters)
	}
	for c := range slices {
		sameResponse(t, fmt.Sprintf("waiter %d", c), got[c], expectResponse(m, slices[c]))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.busy || len(b.pending) != 0 {
		t.Fatalf("queue not idle after the flush: busy=%v pending=%d", b.busy, len(b.pending))
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

// TestConcurrentScoreStorm hammers one server from many goroutines — run
// under -race this is the serving path's thread-safety proof (shared
// cached model, shared queue, pooled workspaces, demux).
func TestConcurrentScoreStorm(t *testing.T) {
	reg, m, query := servingFixture(t, 23, 16)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
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

// TestPublishOversizedConfigRejected: a blob of a few hundred bytes whose
// config asks for a 2²⁰-wide model is refused with a 4xx — it must not
// reach an allocation that kills the process — and the server goes on
// scoring the model it already serves.
func TestPublishOversizedConfigRejected(t *testing.T) {
	reg, m, query := servingFixture(t, 24, 3)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	// Field names are what gob matches on: this decodes as a core model
	// snapshot with no parameters.
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(struct {
		Format               string
		EmbeddingDim, Hidden int
	}{"sleuth-model-v1", 1 << 20, 1 << 20}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/models/prod", "application/octet-stream", &blob)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("publishing an oversized config: status %d, want 4xx", resp.StatusCode)
	}
	if got := len(reg.List()); got != 1 {
		t.Fatalf("registry holds %d versions after the rejected publish, want 1", got)
	}
	sameResponse(t, "after the rejected publish", scoreVia(t, srv.URL, query), expectResponse(m, query))
}
