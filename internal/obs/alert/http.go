// HTTP surfaces of the watchdog: the /debug/alerts JSON status document,
// the Prometheus ALERTS-style exposition appended to /metrics, and
// Register, which hangs both off the obs debug mux through the extension
// hooks (obs cannot import this package — alert imports obs).

package alert

import (
	"fmt"
	"io"
	"net/http"

	"github.com/sleuth-rca/sleuth/internal/obs"
)

// StatusResponse is the /debug/alerts document.
type StatusResponse struct {
	Enabled bool `json:"enabled"`
	// IntervalSec is the evaluation interval in seconds: the sampler's
	// sweep interval.
	IntervalSec float64 `json:"intervalSec,omitempty"`
	// LastTick is the Unix-nanosecond time of the latest evaluation.
	LastTick int64 `json:"lastTick,omitempty"`
	Rules    int   `json:"rules"`
	Firing   int   `json:"firing"`
	Pending  int   `json:"pending"`
	// Alerts lists every rule's current state, firing first.
	Alerts []Alert `json:"alerts"`
}

// Status builds the current status document. A nil engine reports
// enabled=false with an empty alert list — the disabled-watchdog shape
// the fallback /debug/alerts handler also serves.
func (e *Engine) Status() StatusResponse {
	resp := StatusResponse{Alerts: []Alert{}}
	if e == nil {
		return resp
	}
	resp.Enabled = true
	resp.IntervalSec = e.interval.Seconds()
	if last := e.LastTick(); !last.IsZero() {
		resp.LastTick = last.UnixNano()
	}
	all := e.Alerts()
	resp.Rules = len(all)
	// Firing first, then pending, then the rest in rule order.
	for _, a := range all {
		if a.State == StateFiring {
			resp.Firing++
			resp.Alerts = append(resp.Alerts, a)
		}
	}
	for _, a := range all {
		if a.State == StatePending {
			resp.Pending++
			resp.Alerts = append(resp.Alerts, a)
		}
	}
	for _, a := range all {
		if a.State != StateFiring && a.State != StatePending {
			resp.Alerts = append(resp.Alerts, a)
		}
	}
	return resp
}

// Handler serves the status document as JSON.
func (e *Engine) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, e.Status())
	}
}

// AppendProm writes the Prometheus-convention ALERTS series for every
// pending or firing alert — the shape Prometheus itself exposes for
// active alerting rules, so dashboards built on ALERTS{...} work
// unchanged against Sleuth's own /metrics.
func (e *Engine) AppendProm(w io.Writer) {
	if e == nil {
		return
	}
	wrote := false
	for _, a := range e.Alerts() {
		if a.State != StateFiring && a.State != StatePending {
			continue
		}
		if !wrote {
			fmt.Fprint(w, "# HELP ALERTS Active watchdog alerts (pending or firing)\n# TYPE ALERTS gauge\n")
			wrote = true
		}
		fmt.Fprintf(w, "ALERTS{alertname=%q,alertstate=%q", a.Name, string(a.State))
		if a.Severity != "" {
			fmt.Fprintf(w, ",severity=%q", a.Severity)
		}
		if a.Component != "" {
			fmt.Fprintf(w, ",component=%q", a.Component)
		}
		fmt.Fprint(w, "} 1\n")
	}
}

// Register hangs the engine off the obs debug surfaces: /debug/alerts
// serves Status and /metrics grows the ALERTS exposition. Call once after
// the engine is built (replaces any previous engine's registration, so
// tests can re-register freely).
func (e *Engine) Register() {
	if e == nil {
		return
	}
	obs.SetAlertsHandler(e.Handler())
	obs.SetPromAppender(e.AppendProm)
}
