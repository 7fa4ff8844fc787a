// Runtime self-gauges: process vitals of the registry Enable creates,
// refreshed right before every /metrics scrape and sampler sweep reads it,
// without a dedicated polling goroutine.

package obs

import (
	"runtime"
	"time"
)

// procStart anchors the uptime gauge.
var procStart = time.Now()

// refreshRuntimeGauges sets the runtime.* gauges: goroutine count, heap
// bytes, GC activity and process uptime.
func refreshRuntimeGauges(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	r.Gauge("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	r.Gauge("runtime.gc_runs").Set(float64(ms.NumGC))
	r.Gauge("runtime.gc_pause_p99_us").Set(gcPauseP99us(&ms))
	r.Gauge("runtime.uptime_s").Set(time.Since(procStart).Seconds())
}

// gcPauseP99us estimates the 99th-percentile GC pause (µs) over the
// runtime's recent-pause ring (up to 256 entries). Allocation-free: the
// sampler runs this every tick and its sweep must stay 0 allocs/op, so the
// scratch is a fixed stack array sorted in place.
func gcPauseP99us(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	var buf [256]uint64
	copy(buf[:n], ms.PauseNs[:n])
	// Insertion sort: n ≤ 256, and sort.Slice would allocate its closure.
	for i := 1; i < n; i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	idx := (99*n - 1) / 100
	if idx >= n {
		idx = n - 1
	}
	return float64(buf[idx]) / float64(time.Microsecond)
}
