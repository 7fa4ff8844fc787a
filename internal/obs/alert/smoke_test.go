package alert

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// TestAlertSmoke is the `make verify` alert smoke: a synthetic score-p99
// regression fires the stock modelserver burn-rate rule within two
// evaluation ticks, the firing alert carries the worst exemplar trace ID
// and that ID resolves through the same /debug/traces?id= endpoint
// `sleuthctl trace` queries; after recovery the alert resolves. The whole
// scenario runs on pinned timestamps — no sleeps, deterministic.
func TestAlertSmoke(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	defer obs.SetAlertsHandler(nil)
	defer obs.SetPromAppender(nil)

	now := time.Now()
	tsAgo := func(ago time.Duration) int64 { return now.Add(-ago).UnixNano() }

	// The slow request's self-trace, resident in the ring (Error keeps it
	// through tail sampling unconditionally).
	const slowTrace = "feedfacecafebeef0123456789abcdef"
	obs.Ring().Add([]*trace.Span{{
		TraceID: slowTrace,
		SpanID:  "0011223344556677",
		Service: "modelserver",
		Name:    "POST /models/gnn/1/score",
		Kind:    trace.KindServer,
		Start:   now.Add(-3 * time.Minute).UnixMicro(),
		End:     now.Add(-3 * time.Minute).Add(250 * time.Millisecond).UnixMicro(),
		Error:   true,
	}})

	// Exemplars on the latency histogram: a healthy one and the slow one
	// the firing alert must pick (largest value wins).
	h := reg.Histogram("modelserver.score_us")
	h.ObserveExemplar(1200, "00000000000000000000000000000001")
	h.ObserveExemplar(250000, slowTrace)

	// The sampled p99 series: an hour of healthy readings, then a
	// regression inside the 5m short window.
	p99 := reg.Series("modelserver.score_us.p99")
	for i := 0; i < 24; i++ {
		p99.AppendAt(tsAgo(55*time.Minute-time.Duration(i)*2*time.Minute), 1800)
	}
	for i := 0; i < 6; i++ {
		p99.AppendAt(tsAgo(4*time.Minute-time.Duration(i)*30*time.Second), 250000)
	}

	e := New(obs.NewSampler(reg, time.Second)) // unstarted: the test ticks by hand
	if err := e.Add(ModelServerRules()...); err != nil {
		t.Fatal(err)
	}
	e.Register()

	// Tick 1 of 2: the stock rule (For=0) must already fire.
	e.Tick(now)
	a := alertFor(t, e, "modelserver_score_p99_burn")
	if a.State != StateFiring {
		e.Tick(now.Add(time.Second)) // tick 2 of the allowed two
		a = alertFor(t, e, "modelserver_score_p99_burn")
	}
	if a.State != StateFiring {
		t.Fatalf("p99 regression did not fire within two ticks: %+v", a)
	}
	if a.TraceID != slowTrace || a.ExemplarValue != 250000 {
		t.Fatalf("firing alert exemplar = %q/%g, want %q/250000", a.TraceID, a.ExemplarValue, slowTrace)
	}

	// The debug surfaces a live operator (or sleuthctl) would hit.
	mux := http.NewServeMux()
	obs.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var status StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !status.Enabled || status.Firing != 1 {
		t.Fatalf("/debug/alerts status: %+v", status)
	}
	if status.Alerts[0].Name != "modelserver_score_p99_burn" {
		t.Fatalf("firing alert not ordered first: %+v", status.Alerts[0])
	}

	// The alert's trace ID resolves exactly the way `sleuthctl trace` does.
	resp, err = http.Get(srv.URL + "/debug/traces?id=" + a.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*trace.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(spans) == 0 || spans[0].TraceID != slowTrace {
		t.Fatalf("exemplar trace did not resolve: %+v", spans)
	}

	// /metrics carries the Prometheus ALERTS exposition via the appender.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `ALERTS{alertname="modelserver_score_p99_burn",alertstate="firing"`) {
		t.Fatalf("/metrics missing ALERTS exposition:\n%s", body)
	}

	// Recovery: healthy readings stream in, the clock leaves the short
	// window behind, and the alert resolves.
	later := now.Add(10 * time.Minute)
	for i := 0; i < 6; i++ {
		p99.AppendAt(later.Add(-time.Duration(i)*30*time.Second).UnixNano(), 1500)
	}
	e.Tick(later)
	if a := alertFor(t, e, "modelserver_score_p99_burn"); a.State != StateResolved {
		t.Fatalf("recovered regression did not resolve: %+v", a)
	}
	var promAfter strings.Builder
	e.AppendProm(&promAfter)
	if strings.Contains(promAfter.String(), "modelserver_score_p99_burn") {
		t.Fatalf("resolved alert still exported: %s", promAfter.String())
	}
}
