// Tail-based sampling: the keep/shed decision applied to a whole trace
// once the concentrator has seen all of its spans (or its TTL window
// closed). The policy is the one TraceDiag argues production RCA needs —
// cut volume before the expensive stages, but never cut the traces RCA
// exists to explain:
//
//  1. a trace with any error span is always kept;
//  2. a trace whose root duration exceeds a configurable percentile of the
//     live per-operation baseline (store.OpSummaries) is always kept;
//  3. everything else — the healthy bulk — is kept with probability
//     SampleRate, decided by trace-ID hash so the same trace gets the same
//     verdict on every collector replica, with no RNG state to contend on.
package ingest

import (
	"math"
	"strings"
	"sync/atomic"

	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// keepReason classifies a sampler verdict for the decision counters.
type keepReason uint8

const (
	shedProb    keepReason = iota // healthy, hashed out
	keptError                     // error span present
	keptLatency                   // root duration above baseline percentile
	keptProb                      // healthy, hashed in (or SampleRate ≥ 1)
)

// opTriple keys the baseline map without re-concatenating OpKey strings on
// the hot path: looking up a struct of existing strings allocates nothing.
type opTriple struct {
	service string
	name    string
	kind    trace.Kind
}

type baselineMap map[opTriple]float64

// Sampler makes tail-based keep/shed decisions. All methods are safe for
// concurrent use; the baseline swaps atomically under a running pipeline.
type Sampler struct {
	keepAll   bool
	threshold uint64 // keep healthy traces whose trace-ID hash falls below
	tailPct   float64
	baseline  atomic.Pointer[baselineMap]
}

// NewSampler creates a sampler keeping healthy traces with probability
// rate (clamped to [0,1]; ≥ 1 keeps everything) and latency outliers above
// the tailPct percentile of the baseline set via SetBaselineFromSummaries.
func NewSampler(rate, tailPct float64) *Sampler {
	s := &Sampler{tailPct: tailPct}
	if rate >= 1 || math.IsNaN(rate) {
		s.keepAll = true
		return s
	}
	if rate < 0 {
		rate = 0
	}
	s.threshold = uint64(rate * float64(math.MaxUint64))
	return s
}

// hash64 is FNV-1a over the trace ID — the same family the store uses for
// sharding, salted so sampling and shard placement decorrelate — run
// through a murmur3-style finalizer: the probabilistic verdict compares the
// whole 64-bit value against a threshold, and raw FNV of short IDs is not
// uniform enough in its high bits for the kept fraction to track the rate.
func hash64(id string) uint64 {
	h := uint64(14695981039346656037) ^ 0x5a5a5a5a5a5a5a5a
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Keep decides one trace: hasError is whether any span errored, root is
// the trace's root span (nil when undeterminable), traceID drives the
// probabilistic verdict. The decision allocates nothing.
func (s *Sampler) Keep(hasError bool, root *trace.Span, traceID string) (bool, keepReason) {
	if hasError {
		return true, keptError
	}
	if root != nil {
		if bl := s.baseline.Load(); bl != nil {
			if th, ok := (*bl)[opTriple{root.Service, root.Name, root.Kind}]; ok &&
				float64(root.Duration()) > th {
				return true, keptLatency
			}
		}
	}
	if s.keepAll || hash64(traceID) < s.threshold {
		return true, keptProb
	}
	return false, shedProb
}

// SetBaselineFromSummaries replaces the latency baseline with per-operation
// thresholds derived from live OpSummaries rows: the sampler's tail
// percentile rounds up to the next aggregate the store keeps (> 95 → P99,
// > 50 → P95, otherwise the median), so the latency rule never keeps more
// traces than the percentile asks for.
func (s *Sampler) SetBaselineFromSummaries(sums []store.OpSummary) {
	bl := make(baselineMap, len(sums))
	for _, sum := range sums {
		parts := strings.SplitN(sum.OpKey, "\x1f", 3)
		if len(parts) != 3 {
			continue
		}
		th := sum.Median
		switch {
		case s.tailPct > 95:
			th = sum.P99
		case s.tailPct > 50:
			th = sum.P95
		}
		bl[opTriple{parts[0], parts[1], trace.Kind(parts[2])}] = th
	}
	s.baseline.Store(&bl)
}

// baselineSize returns the number of operations in the current baseline.
func (s *Sampler) baselineSize() int {
	if bl := s.baseline.Load(); bl != nil {
		return len(*bl)
	}
	return 0
}

// rootSpan picks the trace's root for the latency rule: the first
// parentless span, falling back to the earliest-starting span when every
// span has a (possibly missing) parent.
func rootSpan(spans []*trace.Span) *trace.Span {
	var earliest *trace.Span
	for _, sp := range spans {
		if sp.ParentID == "" {
			return sp
		}
		if earliest == nil || sp.Start < earliest.Start {
			earliest = sp
		}
	}
	return earliest
}
