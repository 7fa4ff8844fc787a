// Prometheus text exposition (v0.0.4) of the metrics registry: the
// registry's one serialisation, read by scrapers at /metrics and printed by
// the -metrics flag of sleuthctl and benchrunner.
//
// Mapping: dotted metric names become underscore names (collector.spans_
// accepted → collector_spans_accepted), counters gain the _total suffix,
// histograms render the cumulative _bucket/_sum/_count triplet over the
// exact same bucket bounds Histogram.Quantile interpolates over — the two
// views share bucketBounds, so a scraped histogram_quantile and the
// in-process Quantile agree up to interpolation policy (tested in
// prom_test.go). Exemplars are not exposed here: the 0.0.4 text format has
// no syntax for them, so they surface on firing alerts instead.

package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// ContentTypePrometheus is the exposition-format content type.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// promName maps a dotted metric name onto the Prometheus name charset
// [a-zA-Z0-9_:], replacing every other rune with '_' and prefixing names
// that would start with a digit.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, c := range name {
		valid := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if valid {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP annotation: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promFloat renders a sample value the way Prometheus expects.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promAppender holds an extra exposition section appended after the
// registry metrics — the watchdog engine's ALERTS series. Registered via
// SetPromAppender because obs cannot import internal/obs/alert.
var promAppender atomic.Pointer[func(io.Writer)]

// SetPromAppender installs (or replaces, or with nil removes) the extra
// exposition section written at the end of every Prometheus scrape.
func SetPromAppender(fn func(io.Writer)) {
	if fn == nil {
		promAppender.Store(nil)
		return
	}
	promAppender.Store(&fn)
}

// WritePrometheus renders every registered metric in stable (sorted) order.
// A nil registry writes nothing — the scrape of a disabled process is a
// valid, empty exposition.
func WritePrometheus(w io.Writer, r *Registry) {
	if r == nil {
		return
	}
	defer func() {
		if fn := promAppender.Load(); fn != nil {
			(*fn)(w)
		}
	}()
	counters, gauges, hists := r.metrics()
	for _, c := range counters {
		n := promName(c.name) + "_total"
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			n, escapeHelp(c.name), n, n, c.Value())
	}
	for _, g := range gauges {
		n := promName(g.name)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			n, escapeHelp(g.name), n, n, promFloat(g.Value()))
	}
	for _, h := range hists {
		n := promName(h.name)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", n, escapeHelp(h.name), n)
		cum := int64(0)
		for i := 0; i < numBuckets-1; i++ {
			cum += atomic.LoadInt64(&h.buckets[i])
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, promFloat(bucketBounds[i]), cum)
		}
		cum += atomic.LoadInt64(&h.buckets[numBuckets-1])
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, promFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
	}
}

// PromHandler serves the Prometheus exposition of reg.
func PromHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypePrometheus)
		WritePrometheus(w, reg)
	}
}
