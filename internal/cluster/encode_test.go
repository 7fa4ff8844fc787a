package cluster

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// serialSets is the reference TraceSets must reproduce: a serial TraceSet
// loop over a fresh Interner.
func serialSets(traces []*trace.Trace, dmax int) []WeightedSet {
	in := NewInterner()
	out := make([]WeightedSet, len(traces))
	for i, tr := range traces {
		out[i] = TraceSet(in, tr, dmax)
	}
	return out
}

// requireSameSets fails unless got and want hold the same IDs, the same
// weight bits and the same mass bits, over vocabularies of the same size.
func requireSameSets(t *testing.T, what string, got, want []WeightedSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sets, want %d", what, len(got), len(want))
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for k := range want {
		g, w := got[k], want[k]
		if !slices.Equal(g.ids, w.ids) || !slices.Equal(bits(g.w), bits(w.w)) || math.Float64bits(g.mass) != math.Float64bits(w.mass) {
			t.Fatalf("%s: set %d:\n got %v %v %v\nwant %v %v %v", what, k, g.ids, g.w, g.mass, w.ids, w.w, w.mass)
		}
		if g.vocab != got[0].vocab {
			t.Fatalf("%s: set %d has another vocabulary than set 0", what, k)
		}
	}
	if len(want) > 0 && got[0].vocab.Size() != want[0].vocab.Size() {
		t.Fatalf("%s: vocabulary size %d, want %d", what, got[0].vocab.Size(), want[0].vocab.Size())
	}
}

// shuffled returns a random selection of traces in random order, at least
// half of them.
func shuffled(r *xrand.Rand, traces []*trace.Trace) []*trace.Trace {
	out := slices.Clone(traces)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out[:len(out)/2+r.Intn(len(out)/2+1)]
}

// TestTraceSetsCachedMatchesSerial: a window whose traces other windows
// encoded first — in other orders, mixed with other traces and at other
// ancestor windows — gathers exactly the sets a fresh serial TraceSet loop
// gives, and so does the first window that meets them.
func TestTraceSetsCachedMatchesSerial(t *testing.T) {
	r := xrand.New(41)
	traces := append(randomTraces(t, xrand.New(5), 60), syntheticTraces(t, 64, 40, 3)...)
	dmaxes := []int{0, 1, 3, 5}
	for round := 0; round < 3; round++ {
		for _, dmax := range dmaxes {
			for _, w := range [][]*trace.Trace{shuffled(r, traces), shuffled(r, traces), traces} {
				requireSameSets(t, fmt.Sprintf("round %d dmax %d, %d traces", round, dmax, len(w)), TraceSets(w, dmax), serialSets(w, dmax))
			}
		}
	}
	// The same trace twice in one window.
	w := []*trace.Trace{traces[3], traces[70], traces[3]}
	requireSameSets(t, "repeated trace", TraceSets(w, DefaultMaxAncestors), serialSets(w, DefaultMaxAncestors))
	requireSameSets(t, "empty window", TraceSets(nil, DefaultMaxAncestors), nil)
}

// TestTraceSetsConcurrentWindows: windows that share traces, gathered from
// several goroutines at once — some at the same ancestor window, some at
// another — each get the serial loop's sets. Run under -race.
func TestTraceSetsConcurrentWindows(t *testing.T) {
	testenv.SetGOMAXPROCS(t, 4)
	traces := append(randomTraces(t, xrand.New(9), 80), syntheticTraces(t, 64, 40, 4)...)
	type job struct {
		window []*trace.Trace
		dmax   int
		want   []WeightedSet
	}
	r := xrand.New(43)
	var jobs []job
	for k := 0; k < 8; k++ {
		w, dmax := shuffled(r, traces), []int{DefaultMaxAncestors, 1}[k%2]
		jobs = append(jobs, job{w, dmax, serialSets(w, dmax)})
	}
	for round := 0; round < 3; round++ {
		got := make([][]WeightedSet, len(jobs))
		var wg sync.WaitGroup
		for k := range jobs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k] = TraceSets(jobs[k].window, jobs[k].dmax)
			}(k)
		}
		wg.Wait()
		for k, j := range jobs {
			requireSameSets(t, fmt.Sprintf("round %d window %d", round, k), got[k], j.want)
		}
	}
}

// withIdentifierLimit lowers the identifier table's limit for one test.
func withIdentifierLimit(t *testing.T, limit int) {
	t.Helper()
	identifiers.mu.Lock()
	old := identifiers.limit
	identifiers.limit = limit
	identifiers.mu.Unlock()
	t.Cleanup(func() {
		identifiers.mu.Lock()
		identifiers.limit = old
		identifiers.mu.Unlock()
	})
}

// TestTraceSetsIdentifierTableRestarts: with the table's limit lowered so
// that it starts over between windows (codes from an older generation are
// encoded again), within a window (the gather's second pass), and on every
// trace (a window larger than the table, encoded from its spans), every
// window still gets the serial loop's sets.
func TestTraceSetsIdentifierTableRestarts(t *testing.T) {
	traces := randomTraces(t, xrand.New(13), 80)
	r := xrand.New(47)
	// Every window fits a table of limit fits, and the four ancestor
	// windows' identifiers together do not.
	largest, union := 0, NewInterner()
	for _, dmax := range []int{0, 1, 3, 5} {
		largest = max(largest, serialSets(traces, dmax)[0].vocab.Size())
		for _, tr := range traces {
			TraceSet(union, tr, dmax)
		}
	}
	fits := (largest + union.Size()) / 2
	if fits <= largest+40 || fits >= union.Size() {
		t.Fatalf("windows hold up to %d identifiers and %d together: no limit between", largest, union.Size())
	}
	for _, limit := range []int{fits, largest / 2, 8, 1} {
		withIdentifierLimit(t, limit)
		before := identifiers.gen.Load()
		for round := 0; round < 2; round++ {
			for _, dmax := range []int{0, 1, 3, 5} {
				for _, w := range [][]*trace.Trace{traces, shuffled(r, traces)} {
					requireSameSets(t, fmt.Sprintf("limit %d round %d dmax %d", limit, round, dmax), TraceSets(w, dmax), serialSets(w, dmax))
				}
			}
		}
		if identifiers.gen.Load() == before {
			t.Fatalf("limit %d: the identifier table never started over", limit)
		}
		identifiers.mu.Lock()
		size := len(identifiers.names)
		identifiers.mu.Unlock()
		// The table outgrows its limit by at most the identifiers of one
		// trace (at most 40 spans here).
		if size >= limit+40 {
			t.Fatalf("limit %d: table holds %d identifiers", limit, size)
		}
	}
}

// TestEncodedTraceCollectable: the codes a window stores on a trace do not
// keep it alive. Traces fetched from a store and encoded are collected once
// the store and the windows are dropped.
func TestEncodedTraceCollectable(t *testing.T) {
	st := store.New()
	for _, tr := range randomTraces(t, xrand.New(17), 20) {
		st.AddTrace(tr)
	}
	const want = 20
	collected := make(chan struct{}, want)
	func() {
		window := st.Traces(store.Query{})
		if len(window) != want {
			t.Fatalf("store returned %d traces, want %d", len(window), want)
		}
		_ = TraceSets(window, DefaultMaxAncestors)
		_ = TraceSets(window, 1)
		for _, tr := range window {
			runtime.SetFinalizer(tr, func(*trace.Trace) { collected <- struct{}{} })
		}
	}()
	st = nil
	deadline := time.After(10 * time.Second)
	for got := 0; got < want; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d encoded traces collected after the store was dropped", got, want)
		}
	}
}
