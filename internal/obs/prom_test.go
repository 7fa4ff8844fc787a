package obs

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"collector.spans_accepted": "collector_spans_accepted",
		"core.train.loss":          "core_train_loss",
		"a-b c/d":                  "a_b_c_d",
		"9lives":                   "_9lives",
		"ok:name_1":                "ok:name_1",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromEscaping(t *testing.T) {
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Errorf("escapeHelp = %q", got)
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+Inf) = %q", got)
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
	if got := promFloat(0.1); got != "0.1" {
		t.Errorf("promFloat(0.1) = %q", got)
	}
}

// TestWritePrometheusGolden locks the full text exposition of a small
// registry: section order (counters, gauges, histograms — each sorted by
// name), the _total suffix, le labels over the shared bucket bounds, and
// the cumulative _bucket/_sum/_count triplet. The histogram block is
// constructed from bucketBounds, the same array Quantile interpolates over,
// so exposition and quantiles cannot drift apart silently.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("collector.spans_accepted").Add(3)
	r.Counter("collector.decode_errors").Add(1)
	r.Gauge("core.train.loss").Set(2.5)
	h := r.Histogram("rca.localize_us")
	h.Observe(0.05) // underflow bucket (le = bucketBounds[0])
	h.Observe(150)
	h.Observe(150)
	h.Observe(5e8) // above the top bound → +Inf bucket only

	var want strings.Builder
	want.WriteString("# HELP collector_decode_errors_total collector.decode_errors\n" +
		"# TYPE collector_decode_errors_total counter\n" +
		"collector_decode_errors_total 1\n" +
		"# HELP collector_spans_accepted_total collector.spans_accepted\n" +
		"# TYPE collector_spans_accepted_total counter\n" +
		"collector_spans_accepted_total 3\n" +
		"# HELP core_train_loss core.train.loss\n" +
		"# TYPE core_train_loss gauge\n" +
		"core_train_loss 2.5\n" +
		"# HELP rca_localize_us rca.localize_us\n" +
		"# TYPE rca_localize_us histogram\n")
	cum := 0
	for i, le := range bucketBounds {
		if i == 0 {
			cum++ // the 0.05 observation
		}
		if le >= 150 && bucketBounds[i-1] < 150 {
			cum += 2
		}
		fmt.Fprintf(&want, "rca_localize_us_bucket{le=%q} %d\n", promFloat(le), cum)
	}
	want.WriteString("rca_localize_us_bucket{le=\"+Inf\"} 4\n")
	fmt.Fprintf(&want, "rca_localize_us_sum %s\n", promFloat(0.05+150+150+5e8))
	want.WriteString("rca_localize_us_count 4\n")

	var got strings.Builder
	WritePrometheus(&got, r)
	if got.String() != want.String() {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}

	// Stable across renders.
	var again strings.Builder
	WritePrometheus(&again, r)
	if again.String() != got.String() {
		t.Error("exposition not stable across renders")
	}
}

// promSample is the whole of a 0.0.4 sample line as Sleuth writes it:
// name, optional {label="value",…}, one space, the value — no timestamp,
// and no OpenMetrics exemplar suffix, which 0.0.4 parsers reject.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\S+)$`)

// TestWritePrometheusExemplarsStayOff renders a histogram whose buckets
// hold exemplars and requires every sample line to parse as 0.0.4 text:
// a traced request records an exemplar, and the scrape after it must not
// break.
func TestWritePrometheusExemplarsStayOff(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("modelserver.http.request_us")
	h.ObserveExemplar(150, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.ObserveExemplar(5e8, "00f067aa0ba902b7a3ce929d0e0e4736")
	h.Observe(3)

	var b strings.Builder
	WritePrometheus(&b, r)
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("not a 0.0.4 sample line: %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Errorf("sample value %q of %q: %v", m[2], line, err)
		}
		samples++
	}
	if want := numBuckets + 2; samples != want {
		t.Errorf("%d sample lines, want %d (buckets, _sum, _count)", samples, want)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, nil)
	if b.Len() != 0 {
		t.Errorf("nil registry wrote %q", b.String())
	}
}

func TestPromHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	rec := httptest.NewRecorder()
	PromHandler(r)(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypePrometheus {
		t.Errorf("Content-Type = %q, want %q", ct, ContentTypePrometheus)
	}
	if !strings.Contains(rec.Body.String(), "c_total 1\n") {
		t.Errorf("body missing counter sample:\n%s", rec.Body.String())
	}
}

// TestQuantileMatchesBuckets cross-checks Histogram.Quantile against the
// exposed cumulative buckets: for any q, the estimate must land inside the
// bucket where the cumulative count crosses q·total — i.e. within
// (le_{i-1}, le_i] of the exposition's own le labels. A Quantile that used
// different bounds than the exposition would step outside immediately.
func TestQuantileMatchesBuckets(t *testing.T) {
	h := newHistogram("h")
	// Log-uniform spread plus clumps at bucket edges to stress inclusivity.
	for v := 1; v <= 10000; v++ {
		h.Observe(float64(v))
	}
	for i := 0; i < 500; i++ {
		h.Observe(10)  // exactly a bound
		h.Observe(0.1) // exactly the lowest bound
	}
	total := h.Count()
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		// Locate the crossing bucket the same way the exposition's
		// cumulative counts would.
		rank := q * float64(total)
		cum := int64(0)
		bucket := numBuckets - 1
		for i := 0; i < numBuckets; i++ {
			n := atomic.LoadInt64(&h.buckets[i])
			if float64(cum+n) >= rank && n > 0 {
				bucket = i
				break
			}
			cum += n
		}
		lo := 0.0
		if bucket > 0 {
			lo = bucketBounds[bucket-1]
		}
		hi := math.Inf(1)
		if bucket < numBuckets-1 {
			hi = bucketBounds[bucket]
		}
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %g outside its exposition bucket (%g, %g]", q, got, lo, hi)
		}
	}
}
