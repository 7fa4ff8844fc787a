// HTTP surfaces: the /metrics Prometheus exposition, the /debug/series
// ring-buffer history endpoint, net/http/pprof wiring, health and readiness
// reporting, and the access-log middleware shared by the model server and
// the collector.

package obs

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Mount attaches the debug surface to a mux:
//
//	GET /metrics              Prometheus text exposition (v0.0.4)
//	GET /debug/series         ring-buffer time series (JSON)
//	GET /debug/traces         recent request self-traces (JSON)
//	GET /debug/alerts         watchdog alert states (JSON)
//	GET /debug/pprof/...      net/http/pprof profiles
//
// Every endpoint resolves the process registry per request, so a registry
// enabled after Mount is still picked up.
func Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		PromHandler(Global())(w, r)
	})
	mux.HandleFunc("/debug/series", func(w http.ResponseWriter, r *http.Request) {
		SeriesHandler(Global())(w, r)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		TracesHandler(Ring())(w, r)
	})
	mux.HandleFunc("/debug/alerts", serveAlerts)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// SeriesData is the JSON view of one series in a /debug/series response.
type SeriesData struct {
	Name    string      `json:"name"`
	Samples []Sample    `json:"samples"`
	Stats   SeriesStats `json:"stats"`
}

// SeriesInfo is one entry of the /debug/series listing.
type SeriesInfo struct {
	Name string `json:"name"`
}

// SeriesListResponse is the /debug/series response without a name filter.
type SeriesListResponse struct {
	Series []SeriesInfo `json:"series"`
}

// SeriesQueryResponse is the /debug/series response for named series.
type SeriesQueryResponse struct {
	WindowSec float64               `json:"windowSec"`
	Series    map[string]SeriesData `json:"series"`
}

// SeriesHandler serves ring-buffer history:
//
//	GET /debug/series                     list registered series
//	GET /debug/series?name=a,b&window=5m  samples + stats per named series
//
// window accepts a Go duration ("90s", "5m"); empty or invalid means the
// whole ring. Unknown names come back with zero samples rather than 404 —
// a watcher can start polling before the first emission. A nil registry
// serves empty responses, so the endpoint is probe-safe when disabled.
func SeriesHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		names := r.URL.Query().Get("name")
		if names == "" {
			resp := SeriesListResponse{Series: []SeriesInfo{}}
			for _, name := range reg.SeriesNames() {
				resp.Series = append(resp.Series, SeriesInfo{Name: name})
			}
			WriteJSON(w, resp)
			return
		}
		var window time.Duration
		if raw := r.URL.Query().Get("window"); raw != "" {
			if d, err := time.ParseDuration(raw); err == nil && d > 0 {
				window = d
			}
		}
		resp := SeriesQueryResponse{WindowSec: window.Seconds(), Series: map[string]SeriesData{}}
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			s := reg.LookupSeries(name)
			data := SeriesData{Name: name, Samples: s.Samples(window), Stats: s.Stats(window)}
			if data.Samples == nil {
				data.Samples = []Sample{}
			}
			resp.Series[name] = data
		}
		WriteJSON(w, resp)
	}
}

// WriteJSON renders v as indented JSON with the right content type — the
// one encoder of every debug surface, in this package and outside it (the
// watchdog's /debug/alerts).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// --- Watchdog extension hooks ----------------------------------------------

// alertsHandler holds the /debug/alerts handler installed by the watchdog
// engine (internal/obs/alert). obs cannot import that package — alert
// imports obs — so the engine registers itself through this hook and
// Mount consults it per request.
var alertsHandler atomic.Pointer[http.HandlerFunc]

// SetAlertsHandler installs (or replaces) the /debug/alerts handler.
func SetAlertsHandler(h http.HandlerFunc) {
	if h == nil {
		alertsHandler.Store(nil)
		return
	}
	alertsHandler.Store(&h)
}

// serveAlerts dispatches /debug/alerts to the installed watchdog handler,
// or reports the disabled-watchdog document so the endpoint is probe-safe
// before (or without) an engine.
func serveAlerts(w http.ResponseWriter, r *http.Request) {
	if h := alertsHandler.Load(); h != nil {
		(*h)(w, r)
		return
	}
	WriteJSON(w, map[string]any{"enabled": false, "alerts": []any{}})
}

// --- Health ----------------------------------------------------------------

// procStart anchors the reported uptime.
var procStart = time.Now()

// Version is the build version string reported by health endpoints; a
// release build can override it via -ldflags "-X .../obs.Version=v1.2.3".
var Version = "dev"

// buildRevision resolves the VCS revision once from debug build info.
var buildRevision = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
})

// Health is the JSON body of a component health response.
type Health struct {
	Status    string  `json:"status"`
	Component string  `json:"component"`
	Version   string  `json:"version"`
	GoVersion string  `json:"goVersion"`
	Revision  string  `json:"revision,omitempty"`
	Obs       bool    `json:"obs"`
	UptimeSec float64 `json:"uptimeSec"`
}

// HealthHandler serves the component's liveness with version/build info and
// whether observability is enabled — the fields an operator (or a fleet
// health checker) needs to tell which build answered.
func HealthHandler(component string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, Health{
			Status:    "ok",
			Component: component,
			Version:   Version,
			GoVersion: runtime.Version(),
			Revision:  buildRevision(),
			Obs:       Global() != nil,
			UptimeSec: time.Since(procStart).Seconds(),
		})
	}
}

// --- Readiness ---------------------------------------------------------------

// ReadyCheck is one named readiness condition: Check returns nil when the
// condition holds and a descriptive error when it does not.
type ReadyCheck struct {
	Name  string
	Check func() error
}

// ReadyStatus is the JSON body of a /readyz response.
type ReadyStatus struct {
	Ready     bool   `json:"ready"`
	Component string `json:"component"`
	// Checks maps check name → "ok" or the failure message.
	Checks map[string]string `json:"checks"`
}

// ReadyHandler serves readiness (as opposed to HealthHandler's liveness):
// 200 when every check passes, 503 with the failing checks listed when
// any does not. No checks means always ready.
func ReadyHandler(component string, checks ...ReadyCheck) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := ReadyStatus{Ready: true, Component: component, Checks: map[string]string{}}
		for _, c := range checks {
			if c.Check == nil {
				continue
			}
			if err := c.Check(); err != nil {
				st.Ready = false
				st.Checks[c.Name] = err.Error()
			} else {
				st.Checks[c.Name] = "ok"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if !st.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		WriteJSON(w, st)
	}
}

// RequestIDHeader is the request-correlation header the access log reads
// and echoes.
const RequestIDHeader = "X-Request-ID"

// reqSeq numbers generated request IDs; reqEpoch makes IDs unique across
// process restarts.
var (
	reqSeq   atomic.Int64
	reqEpoch = time.Now().UnixNano() & 0xffffff
)

// nextRequestID generates a process-unique request identifier.
func nextRequestID() string {
	return fmt.Sprintf("%06x-%06d", reqEpoch, reqSeq.Add(1))
}

// statusWriter captures the response status code for logging/metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceablePath reports whether a request path gets a per-request self
// trace. Scrape, probe and debug surfaces are exempt: a watch dashboard
// polling /metrics every second (or a fleet probing /readyz) must not
// churn the trace ring.
func traceablePath(p string) bool {
	return p != "/metrics" && p != "/healthz" && p != "/readyz" && !strings.HasPrefix(p, "/debug/")
}

// AccessLog wraps next with request observability for one component:
//
//   - a request ID taken from the X-Request-ID header (or generated),
//     echoed back in the X-Request-ID response header and attached to the
//     root span — the join key shared by log lines and self-trace spans;
//   - a per-request distributed self-trace (when the registry is enabled
//     and the path is not a scrape/debug surface): an incoming W3C
//     traceparent is parsed — with fallback to a fresh root on any
//     malformed value — and a server root span opens under the remote
//     parent; handlers reach it via obs.SpanFrom(r.Context()) to add child
//     spans, and the trace ID is echoed in the X-Trace-ID response header;
//   - on completion the trace is stored in the process trace ring, where
//     /debug/traces, exemplars and alert trace links resolve it;
//   - one structured log line per request — method, path, status, duration,
//     request ID and trace ID — when logger is non-nil;
//   - the request and server-error counters (<component>.http.requests,
//     <component>.http.status_5xx) the error-rate rule divides, and a
//     latency histogram (<component>.http.request_us) in the process
//     registry, with the trace ID recorded as the histogram bucket's
//     exemplar.
func AccessLog(component string, logger *log.Logger, next http.Handler) http.Handler {
	// Metric names are built once per middleware, not per request: handles
	// are still resolved per request (the registry may be enabled later), but
	// a disabled process formats nothing.
	requests := component + ".http.requests"
	status5xx := component + ".http.status_5xx"
	requestUS := component + ".http.request_us"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		var tracer *Tracer
		var root *StageSpan
		if Global() != nil && traceablePath(r.URL.Path) {
			parent, _ := ParseTraceparentHeader(r.Header)
			tracer = NewTracer(component, parent)
			root = tracer.Start(r.Method+" "+r.URL.Path, nil)
			root.SetKind(trace.KindServer)
			root.Annotate("request.id", id)
			w.Header().Set("X-Trace-ID", tracer.TraceID())
			r = r.WithContext(ContextWithSpan(r.Context(), root))
		}

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(start)
		C(requests).Inc()
		if status/100 == 5 {
			C(status5xx).Inc()
		}
		if tracer != nil {
			root.Annotate("http.status", strconv.Itoa(status))
			if status >= 500 {
				root.SetError(true)
			}
			root.End()
			H(requestUS).ObserveExemplar(
				float64(dur)/float64(time.Microsecond), tracer.TraceID())
			Ring().Add(tracer.Spans())
		} else {
			H(requestUS).ObserveDuration(dur)
		}
		if logger != nil {
			traceField := ""
			if tracer != nil {
				traceField = " trace=" + tracer.TraceID()
			}
			logger.Printf("ts=%s component=%s method=%s path=%s status=%d dur_ms=%.3f id=%s%s",
				start.UTC().Format(time.RFC3339Nano), component, r.Method,
				r.URL.Path, status, float64(dur)/float64(time.Millisecond), id, traceField)
		}
	})
}

// NewAccessLogger returns the default structured request logger (stderr, no
// prefix — every field is in the logfmt line itself).
func NewAccessLogger() *log.Logger { return log.New(os.Stderr, "", 0) }
