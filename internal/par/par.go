// Package par is the one data-parallel fan-out every batch kernel runs on:
// scoring and training (§3.4), localisation (§3.5), the clustering kernels
// (§3.3), simulation and the store's shard scan. Each of them is a loop
// over independent items whose results land in index-addressed slots, so
// how many goroutines share the loop never changes an answer; the core
// count comes from GOMAXPROCS and there is no per-call worker knob.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines For(n, …) runs on: GOMAXPROCS capped
// at n, at least 1. A caller that gives each goroutine private scratch
// sizes it with Workers before calling For, and must not change GOMAXPROCS
// in between (nothing in this module does outside tests, and the runtime
// does not for a go 1.22 module).
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// For calls fn(w, i) once for every i in [0, n) and returns when every call
// has. The goroutines claim the next index from a shared counter, so items
// of uneven cost spread evenly; w < Workers(n) names the goroutine making
// the call, and no two calls with the same w overlap. With one worker
// every call runs inline in index order.
func For(n int, fn func(w, i int)) {
	workers := Workers(n)
	if workers == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
