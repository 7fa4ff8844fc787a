package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestReadyHandlerPassAndFail(t *testing.T) {
	Enable()
	defer Disable()

	flaky := errors.New("model cache not warmed")
	var fail bool
	h := ReadyHandler("testcomp",
		ReadyCheck{Name: "always", Check: func() error { return nil }},
		ReadyCheck{Name: "cache", Check: func() error {
			if fail {
				return flaky
			}
			return nil
		}},
		ReadyCheck{Name: "nilcheck"}, // nil Check func is skipped
	)

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready status %d, want 200", rec.Code)
	}
	var st ReadyStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Component != "testcomp" || st.Checks["cache"] != "ok" {
		t.Fatalf("ready body %+v", st)
	}

	fail = true
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready status %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("not-ready content type %q", ct)
	}
	st = ReadyStatus{}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || st.Checks["cache"] != flaky.Error() || st.Checks["always"] != "ok" {
		t.Fatalf("not-ready body %+v", st)
	}
}

func TestDebugAlertsFallbackAndHook(t *testing.T) {
	Enable()
	defer Disable()
	defer SetAlertsHandler(nil)

	mux := http.NewServeMux()
	Mount(mux)

	// No watchdog installed: the endpoint must still answer with the
	// disabled document (probe-safe), not 404.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback status %d", rec.Code)
	}
	var doc struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Enabled {
		t.Fatalf("fallback document claims enabled: %s", rec.Body.String())
	}

	// An installed handler takes over the same route.
	SetAlertsHandler(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]any{"enabled": true})
	})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/alerts", nil))
	if !strings.Contains(rec.Body.String(), `"enabled": true`) {
		t.Fatalf("installed handler not consulted: %s", rec.Body.String())
	}
}

func TestPromAppenderHook(t *testing.T) {
	r := Enable()
	defer Disable()
	defer SetPromAppender(nil)
	r.Counter("hook.test.requests").Inc()

	SetPromAppender(func(w io.Writer) {
		_, _ = io.WriteString(w, "ALERTS{alertname=\"x\",alertstate=\"firing\"} 1\n")
	})

	mux := http.NewServeMux()
	Mount(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "hook_test_requests_total") {
		t.Fatalf("/metrics missing registry metrics:\n%s", body)
	}
	// The appender's output lands after the registry exposition.
	idx := strings.Index(body, `ALERTS{alertname="x"`)
	if idx < 0 || idx < strings.Index(body, "hook_test_requests_total") {
		t.Fatalf("appender output missing or not appended last:\n%s", body)
	}
}
