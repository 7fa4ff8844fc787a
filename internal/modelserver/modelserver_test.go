package modelserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func trainedModel(t *testing.T, seed uint64) *core.Model {
	t.Helper()
	app := synth.Synthetic(16, seed)
	s := sim.New(app, sim.DefaultOptions(seed))
	res, err := s.Run(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 16, Seed: seed})
	if _, err := m.Train(sim.Traces(res), core.TrainOptions{Epochs: 1, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryPublishGetLatest(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := trainedModel(t, 1)
	info1, err := reg.Publish("prod", m, "synthetic-16", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Version != 1 || info1.Params != m.NumParams() {
		t.Fatalf("info = %+v", info1)
	}
	info2, err := reg.Publish("prod", m, "synthetic-16 v2", &info1)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != 2 || info2.ParentVersion != 1 {
		t.Fatalf("info2 = %+v", info2)
	}
	_, got, err := reg.Latest("prod")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("latest = v%d", got.Version)
	}
	loaded, _, err := reg.Get("prod", 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != m.NumParams() {
		t.Fatal("loaded model differs")
	}
}

func TestRegistryRetire(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := trainedModel(t, 2)
	i1, _ := reg.Publish("app", m, "", nil)
	i2, _ := reg.Publish("app", m, "", &i1)
	if err := reg.Retire("app", i2.Version); err != nil {
		t.Fatal(err)
	}
	_, latest, err := reg.Latest("app")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 1 {
		t.Fatalf("latest after retire = v%d", latest.Version)
	}
	if err := reg.Retire("app", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Latest("app"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("all-retired Latest err = %v", err)
	}
	if err := reg.Retire("app", 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("retire missing version err = %v", err)
	}
}

func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := trainedModel(t, 3)
	i1, _ := reg.Publish("a", m, "first", nil)
	reg.Publish("a", m, "second", &i1)
	reg.Publish("b", m, "other", nil)

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	list := reopened.List()
	if len(list) != 3 {
		t.Fatalf("reopened list = %d entries", len(list))
	}
	chain, err := reopened.Lineage("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].Version != 1 {
		t.Fatalf("lineage = %+v", chain)
	}
}

func TestRegistryErrors(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("", trainedModel(t, 4), "", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := reg.Get("missing", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing err = %v", err)
	}
	if _, _, err := reg.Latest("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest missing err = %v", err)
	}
	if _, err := reg.Lineage("missing", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lineage missing err = %v", err)
	}
}

func TestSanitize(t *testing.T) {
	for name, want := range map[string]bool{
		"prod": true, "prod_app-v1.2": true,
		"": false, "prod/app v1": false, "a b": false, "a@b": false, "é": false,
	} {
		if got := sanitized(name); got != want {
			t.Errorf("sanitized(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestOpenRejectsUnsafeManifestNames: a manifest key Publish would refuse
// ("a b", written by an older Publish that mapped it to a_b's blob, or a
// hand-edited "../x" whose blob path leaves the registry), or an entry whose
// Name is not its key, fails Open instead of failing later in Get.
func TestOpenRejectsUnsafeManifestNames(t *testing.T) {
	for _, manifest := range []string{
		`{"a b": [{"name": "a b", "version": 1}]}`,
		`{"../x": [{"name": "../x", "version": 1}]}`,
		`{"prod": [{"name": "other", "version": 1}]}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, ErrBadName) || !strings.Contains(err.Error(), "republish") {
			t.Fatalf("Open(%s) = %v, want ErrBadName asking to republish", manifest, err)
		}
	}
}

// TestPublishRejectsCollidingNames: "a b" would share a_b's blob file, so
// publishing it fails with 400 and a_b's manifest entry still describes the
// model Get loads.
func TestPublishRejectsCollidingNames(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()
	publish := func(path string, m *core.Model) int {
		t.Helper()
		var blob bytes.Buffer
		if err := m.Save(&blob); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/octet-stream", &blob)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	small := trainedModel(t, 1)
	big := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 32, Seed: 2})
	if small.NumParams() == big.NumParams() {
		t.Fatal("test models must differ in size")
	}
	if code := publish("/models/a_b", small); code != http.StatusOK {
		t.Fatalf("publish a_b: status %d", code)
	}
	if code := publish("/models/a%20b", big); code != http.StatusBadRequest {
		t.Fatalf("publish %q: status %d, want 400", "a b", code)
	}
	if _, err := reg.Publish("a b", big, "", nil); !errors.Is(err, ErrBadName) {
		t.Fatalf("Publish(%q) err = %v, want ErrBadName", "a b", err)
	}
	m, info, err := reg.Get("a_b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() != info.Params || info.Params != small.NumParams() {
		t.Fatalf("a_b@1 loads %d params, manifest says %d, published %d",
			m.NumParams(), info.Params, small.NumParams())
	}
}

func TestHTTPLifecycle(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	m := trainedModel(t, 5)
	var blob bytes.Buffer
	if err := m.Save(&blob); err != nil {
		t.Fatal(err)
	}
	blobBytes := blob.Bytes()

	// Publish v1.
	resp, err := http.Post(srv.URL+"/models/prod?trainedOn=synthetic-16", "application/octet-stream", bytes.NewReader(blobBytes))
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version != 1 || info.TrainedOn != "synthetic-16" {
		t.Fatalf("published info = %+v", info)
	}

	// Publish v2 with parentage.
	resp, err = http.Post(srv.URL+"/models/prod?parent=prod@1", "application/octet-stream", bytes.NewReader(blobBytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// List.
	resp, err = http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("list = %d", len(list))
	}

	// Fetch latest and round-trip through core.Load.
	resp, err = http.Get(srv.URL + "/models/prod/latest")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	loaded, err := core.Load(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != m.NumParams() {
		t.Fatal("fetched model differs")
	}

	// Lineage of v2.
	resp, err = http.Get(srv.URL + "/models/prod/2/lineage")
	if err != nil {
		t.Fatal(err)
	}
	var chain []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&chain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(chain) != 1 || chain[0].Version != 1 {
		t.Fatalf("lineage = %+v", chain)
	}

	// Retire v2 → latest becomes v1.
	resp, err = http.Post(srv.URL+"/models/prod/2/retire", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retire status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/models/prod/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get v1 status = %d", resp.StatusCode)
	}
}

func TestHTTPScore(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	app := synth.Synthetic(16, 7)
	s := sim.New(app, sim.DefaultOptions(7))
	res, err := s.Run(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.Traces(res)
	m := core.NewModel(core.Config{EmbeddingDim: 8, Hidden: 16, Seed: 7})
	if _, err := m.Train(traces[:20], core.TrainOptions{Epochs: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("prod", m, "synthetic-16", nil); err != nil {
		t.Fatal(err)
	}

	// Score the held-out traces as a flat span batch.
	query := traces[20:]
	var body ScoreRequest
	for _, tr := range query {
		body.Spans = append(body.Spans, tr.Spans...)
	}
	payload, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+"/models/prod/latest/score", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("score status = %d: %s", resp.StatusCode, msg)
	}
	var out ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(query) || out.Skipped != 0 {
		t.Fatalf("got %d results, %d skipped, want %d results", len(out.Results), out.Skipped, len(query))
	}
	if out.MeanLoss <= 0 {
		t.Fatalf("mean loss = %v", out.MeanLoss)
	}
	// Server predictions must equal local single-trace inference.
	byID := map[string]ScoreResult{}
	for _, r := range out.Results {
		byID[r.TraceID] = r
	}
	for _, tr := range query {
		r, ok := byID[tr.TraceID]
		if !ok {
			t.Fatalf("trace %s missing from response", tr.TraceID)
		}
		durs, errs, _ := m.ScoreBatch([]*trace.Trace{tr}, 0)
		dur, errp := durs[0], errs[0]
		if len(r.DurScaled) != len(dur) {
			t.Fatalf("trace %s: %d predictions, want %d", tr.TraceID, len(r.DurScaled), len(dur))
		}
		for i := range dur {
			if r.DurScaled[i] != dur[i] || r.ErrProb[i] != errp[i] {
				t.Fatalf("trace %s span %d: server prediction differs", tr.TraceID, i)
			}
		}
	}

	// Error paths.
	for _, c := range []struct {
		path, payload string
		want          int
	}{
		{"/models/none/latest/score", string(payload), http.StatusNotFound},
		{"/models/prod/notanumber/score", string(payload), http.StatusBadRequest},
		{"/models/prod/latest/score", `{"spans":[]}`, http.StatusBadRequest},
		{"/models/prod/latest/score", `garbage`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewBufferString(c.payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	cases := []struct {
		method, path string
		body         io.Reader
		wantStatus   int
	}{
		{"GET", "/models/none/latest", nil, http.StatusNotFound},
		{"GET", "/models/none/7", nil, http.StatusNotFound},
		{"GET", "/models/none/notanumber", nil, http.StatusBadRequest},
		{"POST", "/models/x", bytes.NewBufferString("garbage"), http.StatusBadRequest},
		{"POST", "/models/x/1/retire", nil, http.StatusNotFound},
		{"DELETE", "/models/x/1", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
	// Bad parent ref.
	m := trainedModel(t, 6)
	var blob bytes.Buffer
	if err := m.Save(&blob); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/models/x?parent=bogus", "application/octet-stream", &blob)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad parent status = %d", resp.StatusCode)
	}
}

func TestParseRef(t *testing.T) {
	cases := []struct {
		in   string
		name string
		ver  int
		ok   bool
	}{
		{"prod@3", "prod", 3, true},
		{"a@b@2", "a@b", 2, true},
		{"noversion", "", 0, false},
		{"@1", "", 0, false},
		{"x@notint", "", 0, false},
	}
	for _, c := range cases {
		name, ver, ok := parseRef(c.in)
		if ok != c.ok || (ok && (name != c.name || ver != c.ver)) {
			t.Errorf("parseRef(%q) = %q %d %v", c.in, name, ver, ok)
		}
	}
}

// TestHealthAndMetricsEndpoints: the model server must expose a JSON
// health probe and the Prometheus exposition alongside the model routes.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	obs.Disable()
	obs.Enable()
	t.Cleanup(obs.Disable)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Registry: reg}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h obs.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Component != "modelserver" || !h.Obs {
		t.Fatalf("healthz = %+v", h)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "modelserver_http_requests_total") {
		t.Errorf("/metrics missing request counter:\n%s", body)
	}

	// /metrics is the registry's only serialisation.
	resp, err = http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/metrics status = %d, want 404", resp.StatusCode)
	}
}
