package obs

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// freshRegistry installs an empty process registry and restores the
// disabled default when the test ends.
func freshRegistry(t *testing.T) *Registry {
	t.Helper()
	Disable()
	r := Enable()
	t.Cleanup(Disable)
	return r
}

func TestCounterConcurrentExact(t *testing.T) {
	c := &Counter{name: "c"}
	const (
		goroutines = 32
		perG       = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(goroutines*perG); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

// TestGaugeConcurrentSet: concurrent writers never tear a value — the gauge
// reads back one of the values set — and a later Set replaces it.
func TestGaugeConcurrentSet(t *testing.T) {
	g := &Gauge{name: "g"}
	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Set(float64(i) + 0.25)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != math.Trunc(v)+0.25 || v < 0 || v >= goroutines {
		t.Fatalf("Value() = %g, want one of the values set", v)
	}
	g.Set(-3.5)
	if got := g.Value(); got != -3.5 {
		t.Fatalf("after Set(-3.5): Value() = %g", got)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	// Bucket bounds are 10^(minExp + i/bucketsPerDecade); exact powers of
	// ten land exactly on a bound and SearchFloat64s picks that bucket
	// (bounds are inclusive upper bounds).
	cases := []struct {
		v    float64
		want int
	}{
		{0.05, 0},                  // below the lowest bound → underflow bucket
		{0.1, 0},                   // exactly the lowest bound
		{1, 1 * bucketsPerDecade},  // 10^0
		{10, 2 * bucketsPerDecade}, // 10^1
		{1e6, 7 * bucketsPerDecade},
		{1e7, 8 * bucketsPerDecade},
		{2e7, numBuckets - 1}, // above the top bound → overflow bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	h := newHistogram("h")
	h.Observe(-4) // negative coerced to 0 → underflow bucket
	h.Observe(math.NaN())
	h.Observe(5e8) // overflow
	if h.Count() != 3 || h.Sum() != 5e8 {
		t.Errorf("Count/Sum = %d/%g, want 3/5e8 (negative and NaN count as 0)", h.Count(), h.Sum())
	}
	if h.buckets[0] != 2 || h.buckets[numBuckets-1] != 1 {
		t.Errorf("underflow/overflow buckets = %d/%d, want 2/1", h.buckets[0], h.buckets[numBuckets-1])
	}
	if got := h.Quantile(1); got != 5e8 {
		t.Errorf("Quantile(1) = %g, want the overflow maximum 5e8", got)
	}
}

func TestHistogramQuantileConstant(t *testing.T) {
	// All mass at one value: min==max clipping collapses the interpolation
	// window and every quantile is exact.
	h := newHistogram("h")
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 5 {
			t.Errorf("Quantile(%g) = %g, want 5", q, got)
		}
	}
	if got := h.Sum(); got != 500 {
		t.Errorf("Sum() = %g, want 500", got)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count() = %d, want 100", got)
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	// Uniform 1..1000: quantile estimates must land within one bucket
	// ratio (10^(1/6) ≈ 1.47×) of the exact value.
	h := newHistogram("h")
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	ratio := math.Pow(10, 1.0/bucketsPerDecade)
	for _, c := range []struct{ q, exact float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990},
	} {
		got := h.Quantile(c.q)
		if got < c.exact/ratio || got > c.exact*ratio {
			t.Errorf("Quantile(%g) = %g, want within [%g, %g]",
				c.q, got, c.exact/ratio, c.exact*ratio)
		}
	}
	// The extremes clip to the observed min and max exactly.
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %g, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %g, want 1000", got)
	}
	if mean, want := h.Sum()/float64(h.Count()), 500.5; math.Abs(mean-want) > 1e-9 {
		t.Errorf("Sum/Count = %g, want %g", mean, want)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram("h")
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %g, want 0", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Add(3)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Error("nil Counter not inert")
	}
	g.Set(1)
	if g.Value() != 0 || g.Name() != "" {
		t.Error("nil Gauge not inert")
	}
	h.Observe(1)
	h.Start().Stop()
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Name() != "" {
		t.Error("nil Histogram not inert")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil Registry returned non-nil handles")
	}
	Disable()
	if C("x") != nil || G("x") != nil || H("x") != nil {
		t.Error("disabled global returned non-nil handles")
	}
}

func TestRegistryGetOrCreateConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Gauge("gauge").Set(float64(i))
				r.Histogram("hist").Observe(float64(i))
				r.Counter(fmt.Sprintf("own.%d", g)).Inc()
				if i%100 == 0 {
					WritePrometheus(io.Discard, r)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.Counter("shared").Value(), int64(goroutines*500); got != want {
		t.Fatalf("shared counter = %d, want %d (get-or-create raced)", got, want)
	}
	if got := r.Histogram("hist").Count(); got != goroutines*500 {
		t.Fatalf("hist count = %d, want %d", got, goroutines*500)
	}
	// Same name must always yield the same handle.
	if r.Counter("shared") != r.Counter("shared") {
		t.Error("Counter() returned distinct handles for one name")
	}
}

func TestMountServesMetricsAndPprof(t *testing.T) {
	freshRegistry(t)
	C("mounted.counter").Add(7)
	mux := http.NewServeMux()
	Mount(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "mounted_counter_total 7\n") {
		t.Errorf("/metrics missing mounted.counter = 7:\n%s", rec.Body.String())
	}
	// /metrics is the registry's only serialisation: no JSON dump route.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/metrics status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", rec.Code)
	}
}

func TestAccessLog(t *testing.T) {
	r := freshRegistry(t)
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/fail" {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	})
	h := AccessLog("testsvc", logger, inner)

	// Caller-supplied request ID is echoed back.
	req := httptest.NewRequest(http.MethodGet, "/traces", nil)
	req.Header.Set("X-Request-ID", "req-abc")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "req-abc" {
		t.Errorf("echoed X-Request-ID = %q, want req-abc", got)
	}
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d", rec.Code)
	}

	// Missing request ID gets a generated one.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fail", nil))
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("no generated X-Request-ID")
	}

	if n := r.Counter("testsvc.http.requests").Value(); n != 2 {
		t.Errorf("requests = %d, want 2", n)
	}
	if n := r.Counter("testsvc.http.status_5xx").Value(); n != 1 {
		t.Errorf("status_5xx = %d, want 1", n)
	}
	if n := r.Histogram("testsvc.http.request_us").Count(); n != 2 {
		t.Errorf("latency histogram count = %d, want 2", n)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{"component=testsvc", "method=GET", "path=/traces", "status=200", "id=req-abc", "dur_ms="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line missing %q: %s", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], "status=500") {
		t.Errorf("second line missing status=500: %s", lines[1])
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := nextRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestEnableIdempotent(t *testing.T) {
	Disable()
	t.Cleanup(Disable)
	r1 := Enable()
	r2 := Enable()
	if r1 != r2 {
		t.Error("Enable() replaced an existing registry")
	}
	if Global() != r1 {
		t.Error("Global() does not return the enabled registry")
	}
	C("x").Inc()
	if r1.Counter("x").Value() != 1 {
		t.Error("C() did not resolve to the enabled registry")
	}
}
