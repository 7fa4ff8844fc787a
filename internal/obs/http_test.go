package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSeriesHandler(t *testing.T) {
	r := NewRegistry()
	s := r.Series("core.train.epoch.loss")
	base := time.Now().UnixNano()
	for i := 0; i < 3; i++ {
		s.appendSample(base+int64(i), float64(10-i))
	}

	// Listing.
	rec := httptest.NewRecorder()
	SeriesHandler(r)(rec, httptest.NewRequest(http.MethodGet, "/debug/series", nil))
	var list SeriesListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("listing not JSON: %v", err)
	}
	if len(list.Series) != 1 || list.Series[0].Name != "core.train.epoch.loss" {
		t.Fatalf("listing = %+v", list)
	}

	// Query with an unknown name mixed in.
	rec = httptest.NewRecorder()
	SeriesHandler(r)(rec, httptest.NewRequest(http.MethodGet,
		"/debug/series?name=core.train.epoch.loss,missing&window=1h", nil))
	var q SeriesQueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("query not JSON: %v", err)
	}
	if q.WindowSec != 3600 {
		t.Errorf("WindowSec = %g", q.WindowSec)
	}
	got := q.Series["core.train.epoch.loss"]
	if len(got.Samples) != 3 || got.Stats.Count != 3 || got.Stats.Max != 10 || got.Stats.Last != 8 {
		t.Errorf("series data = %+v", got)
	}
	if m, ok := q.Series["missing"]; !ok || len(m.Samples) != 0 || m.Stats.Count != 0 {
		t.Errorf("missing series should be empty, got %+v (ok=%v)", m, ok)
	}

	// Nil registry is probe-safe.
	rec = httptest.NewRecorder()
	SeriesHandler(nil)(rec, httptest.NewRequest(http.MethodGet, "/debug/series", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("nil registry status = %d", rec.Code)
	}
}

func TestHealthHandler(t *testing.T) {
	freshRegistry(t)
	rec := httptest.NewRecorder()
	HealthHandler("collector")(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("health not JSON: %v", err)
	}
	if h.Status != "ok" || h.Component != "collector" || !h.Obs {
		t.Errorf("health = %+v", h)
	}
	if h.Version == "" || h.GoVersion == "" || h.UptimeSec < 0 {
		t.Errorf("health missing build info: %+v", h)
	}

	Disable()
	rec = httptest.NewRecorder()
	HealthHandler("collector")(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	_ = json.Unmarshal(rec.Body.Bytes(), &h)
	if h.Obs {
		t.Error("health reports obs enabled after Disable")
	}
}

func TestMountServesSeriesAndProm(t *testing.T) {
	freshRegistry(t)
	C("mounted.c").Add(2)
	S("mounted.series").Append(1)
	mux := http.NewServeMux()
	Mount(mux)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypePrometheus {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "mounted_c_total 2\n") {
		t.Errorf("/metrics missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/series?name=mounted.series", nil))
	var q SeriesQueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("/debug/series not JSON: %v", err)
	}
	if len(q.Series["mounted.series"].Samples) != 1 {
		t.Errorf("/debug/series = %+v", q)
	}
}
