package modelserver

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// servingFixture publishes a trained model and returns held-out query
// traces alongside the in-memory model for computing expected outputs.
func servingFixture(t testing.TB, seed uint64, nQuery int) (*Registry, *core.Model, []*trace.Trace) {
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
	total := 0.0
	for i, tr := range sorted {
		dur, errp, losses := m.ScoreBatch([]*trace.Trace{tr}, 0)
		resp.Results[i] = ScoreResult{TraceID: tr.TraceID, DurScaled: dur[0], ErrProb: errp[0]}
		total += losses[0]
	}
	if len(sorted) > 0 {
		resp.MeanLoss = total / float64(len(sorted))
	}
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
// the handler and checks every response byte-for-byte against the
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

// TestScoreOneCallPerRequest: overlapping requests each get a ScoreBatch
// call of their own — N requests, N calls, every trace scored once — and
// each reply equals the solo reference. Nothing merges concurrent requests.
// It runs on two Ps at least: on one, a handler scores to the end before
// the next runs, and requests a server would merge seldom overlap.
func TestScoreOneCallPerRequest(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	reg, m, query := servingFixture(t, 17, 24)
	const clients, rounds = 8, 10
	slices := make([][]*trace.Trace, clients)
	wants := make([]ScoreResponse, clients)
	for c := range slices {
		slices[c] = query[c*3 : c*3+3]
		wants[c] = expectResponse(m, slices[c])
	}
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				sameResponse(t, fmt.Sprintf("client %d round %d", c, r), scoreVia(t, srv.URL, slices[c]), wants[c])
			}
		}(c)
	}
	close(start)
	wg.Wait()
	if n := obs.H("core.score.batch_us").Count(); n != clients*rounds {
		t.Fatalf("ScoreBatch calls = %d, want one per request (%d)", n, clients*rounds)
	}
	if got, want := obs.C("core.score.traces").Value(), int64(clients*rounds*3); got != want {
		t.Fatalf("core.score.traces = %d, want %d", got, want)
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
// cached model, pooled workspaces).
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

// invalidSpans are three one-span traces, each holding a span
// trace.Span.Valid rejects, as ingest and LoadJSONL do: one that ends
// before it starts, one of an unknown kind and one without a span ID.
func invalidSpans() []*trace.Span {
	return []*trace.Span{
		{TraceID: "bad-dur", SpanID: "a", Service: "frontend", Name: "GET /", Kind: trace.KindServer, Start: 9, End: 5},
		{TraceID: "bad-kind", SpanID: "a", Service: "frontend", Name: "GET /", Kind: "bogus", Start: 1, End: 5},
		{TraceID: "bad-id", SpanID: "", Service: "frontend", Name: "GET /", Kind: trace.KindServer, Start: 1, End: 5},
	}
}

// scoreBody marshals spans as a /score request body.
func scoreBody(t testing.TB, spans []*trace.Span) []byte {
	t.Helper()
	body, err := json.Marshal(ScoreRequest{Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestScoreSkipsInvalidSpans: /score validates spans like every other
// entry point. A trace holding a span trace.Span.Valid rejects gets no
// result and is counted in Skipped; the valid traces of the same request
// score exactly as on their own.
func TestScoreSkipsInvalidSpans(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	reg, m, query := servingFixture(t, 25, 4)
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	// The three invalid one-span traces, plus a copy of query[0] with one
	// span that ends before it starts.
	spans := invalidSpans()
	for i, sp := range query[0].Spans {
		c := *sp
		if i == len(query[0].Spans)-1 {
			c.End = c.Start - 1
		}
		spans = append(spans, &c)
	}
	for _, tr := range query[1:] {
		spans = append(spans, tr.Spans...)
	}
	resp, err := http.Post(srv.URL+"/models/prod/latest/score", "application/json", bytes.NewReader(scoreBody(t, spans)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status = %d, want 200", resp.StatusCode)
	}
	var got ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := expectResponse(m, query[1:])
	want.Skipped = 4
	sameResponse(t, "valid traces beside invalid ones", got, want)
}

// FuzzScore feeds arbitrary bodies through the model server's handler on a
// published model: no panic, no 5xx, and no result for a trace that holds
// a span trace.Span.Valid rejects.
func FuzzScore(f *testing.F) {
	reg, _, query := servingFixture(f, 26, 1)
	f.Add(scoreBody(f, query[0].Spans))
	for _, sp := range invalidSpans() {
		f.Add(scoreBody(f, []*trace.Span{sp}))
	}
	h := (&Server{Registry: reg}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/models/prod/latest/score", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		// A 200 means the handler's DecodeSpans accepted the body; decode
		// it again to learn which traces hold an invalid span.
		spans, err := otel.DecodeSpans(body)
		if err != nil {
			t.Fatalf("200 for a body DecodeSpans rejects: %v", err)
		}
		invalid := map[string]bool{}
		for _, sp := range spans {
			if !sp.Valid() {
				invalid[sp.TraceID] = true
			}
		}
		var resp ScoreResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with a body that is not a ScoreResponse: %v", err)
		}
		for _, r := range resp.Results {
			if invalid[r.TraceID] {
				t.Fatalf("trace %q holds an invalid span and was scored", r.TraceID)
			}
		}
	})
}
