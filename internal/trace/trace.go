// Package trace defines the canonical distributed-trace model used by every
// component of the Sleuth reproduction.
//
// The model is the OpenTelemetry field subset selected in §3.2.1 of the
// paper: spans are identified for learning purposes by (service, name,
// kind) rather than by their unique span ID, and carry start/end timestamps
// and an error status. Traces are reconstructed from span lists via
// spanID/parentSpanID, after which the package derives the quantities the
// paper's model consumes: the RPC dependency tree, per-span depth,
// exclusive duration (time not overlapped by any child span) and exclusive
// error (an error not originating from a child).
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Kind is the span kind from the OpenTelemetry tracing specification.
type Kind string

// Span kinds. Client/Server mark the two halves of a synchronous RPC,
// Producer/Consumer the halves of an asynchronous message, and Internal a
// local function span.
const (
	KindClient   Kind = "client"
	KindServer   Kind = "server"
	KindProducer Kind = "producer"
	KindConsumer Kind = "consumer"
	KindInternal Kind = "internal"
)

// Valid reports whether k is one of the five defined span kinds.
func (k Kind) Valid() bool {
	switch k {
	case KindClient, KindServer, KindProducer, KindConsumer, KindInternal:
		return true
	}
	return false
}

// Synchronous reports whether the caller of a span of this kind waits for
// its completion. Producer/consumer spans are fire-and-forget and therefore
// do not contribute to their parent's latency (Eq. 2 models this with
// u = v).
func (k Kind) Synchronous() bool {
	return k != KindProducer && k != KindConsumer
}

// Span is one operation in a distributed trace. Times are microseconds
// since the epoch; Duration is End-Start.
type Span struct {
	TraceID  string `json:"traceId"`
	SpanID   string `json:"spanId"`
	ParentID string `json:"parentSpanId,omitempty"`

	Service string `json:"service"`
	Name    string `json:"name"`
	Kind    Kind   `json:"kind"`

	Start int64 `json:"start"` // microseconds
	End   int64 `json:"end"`   // microseconds

	// Error is true when statusCode indicates failure.
	Error bool `json:"error,omitempty"`

	// Pod and Node locate the instance that produced the span; the RCA
	// stage maps root-cause services onto them (§3.5).
	Pod  string `json:"pod,omitempty"`
	Node string `json:"node,omitempty"`

	// Attrs carries additional attributes. Only a small set is ever
	// consulted; the field exists for codec fidelity.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's wall-clock duration in microseconds.
func (s *Span) Duration() int64 { return s.End - s.Start }

// Valid reports whether a decoded span carries the minimum structure trace
// assembly needs: both IDs, a defined kind and a non-negative duration.
// Every entry into the store (the ingest normalize stage, LoadJSONL)
// rejects and counts the rest rather than letting one poison its trace.
func (s *Span) Valid() bool {
	return s != nil && s.TraceID != "" && s.SpanID != "" && s.Kind.Valid() && s.End >= s.Start
}

// OpKey returns the semantic identifier of the operation: service, name and
// kind. Spans sharing an OpKey are instances of the same RPC.
func (s *Span) OpKey() string { return s.Service + "\x1f" + s.Name + "\x1f" + string(s.Kind) }

// AppendOpKey appends the bytes of OpKey to dst and returns the result, so
// a lookup keyed by OpKey can reuse one buffer instead of building a
// string per span.
func (s *Span) AppendOpKey(dst []byte) []byte {
	dst = append(append(dst, s.Service...), 0x1f)
	dst = append(append(dst, s.Name...), 0x1f)
	return append(dst, s.Kind...)
}

// Trace is an assembled trace: its spans plus the derived parent/child
// structure. Construct with Assemble; the structural fields are indexes
// into Spans. An assembled trace's spans must not be modified: the
// structure and the value Memo keeps are derived from them once.
type Trace struct {
	TraceID string
	Spans   []*Span

	// parent[i] is the index of span i's parent, or -1 for a root.
	parent []int
	// children[i] lists the child indexes of span i, ordered by start time.
	children [][]int
	// roots lists indexes of spans without a (present) parent.
	roots []int
	// depth[i] is the distance from span i to its root (root = 0).
	depth []int

	exclusiveDur []int64
	exclusiveErr []bool

	// memo is the value Memo computes, once.
	memo struct {
		once sync.Once
		v    any
	}
}

// Assembly errors.
var (
	ErrEmptyTrace  = errors.New("trace: no spans")
	ErrMixedTraces = errors.New("trace: spans from multiple trace IDs")
	ErrDupSpanID   = errors.New("trace: duplicate span ID")
	ErrCycle       = errors.New("trace: parent cycle")
)

// Assemble builds a Trace from a span list. Spans may arrive in any order.
// Orphan spans (parent ID referencing a missing span) are treated as roots,
// mirroring collector behaviour under partial data loss. The span slice is
// retained and sorted in place by start time.
func Assemble(spans []*Span) (*Trace, error) {
	if len(spans) == 0 {
		return nil, ErrEmptyTrace
	}
	tid := spans[0].TraceID
	for _, s := range spans {
		if s.TraceID != tid {
			return nil, fmt.Errorf("%w: %q and %q", ErrMixedTraces, tid, s.TraceID)
		}
	}
	slices.SortStableFunc(spans, func(a, b *Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.SpanID, b.SpanID)
	})
	idx := make(map[string]int, len(spans))
	for i, s := range spans {
		if _, dup := idx[s.SpanID]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupSpanID, s.SpanID)
		}
		idx[s.SpanID] = i
	}
	t := &Trace{
		TraceID:  tid,
		Spans:    spans,
		parent:   make([]int, len(spans)),
		children: make([][]int, len(spans)),
		depth:    make([]int, len(spans)),
	}
	// Count pass, then fill pass: every child list is cut, at its final
	// capacity, from one backing array, so the appends never allocate.
	counts := make([]int, len(spans))
	nroots := 0
	for i, s := range spans {
		p := -1
		if s.ParentID != "" {
			if pi, ok := idx[s.ParentID]; ok {
				p = pi
			}
		}
		if p == i {
			return nil, fmt.Errorf("%w: span %q is its own parent", ErrCycle, s.SpanID)
		}
		t.parent[i] = p
		if p >= 0 {
			counts[p]++
		} else {
			nroots++
		}
	}
	t.roots = make([]int, 0, nroots)
	backing := make([]int, len(spans)-nroots)
	for i, n := range counts {
		if n > 0 {
			t.children[i], backing = backing[:0:n], backing[n:]
		}
	}
	for i, p := range t.parent {
		if p >= 0 {
			t.children[p] = append(t.children[p], i)
		} else {
			t.roots = append(t.roots, i)
		}
	}
	if err := t.computeDepths(); err != nil {
		return nil, err
	}
	t.computeExclusiveDurations()
	t.computeExclusiveErrors()
	return t, nil
}

// computeDepths fills depth via BFS from the roots and detects cycles
// (spans unreachable from any root imply a parent cycle).
func (t *Trace) computeDepths() error {
	visited := make([]bool, len(t.Spans))
	queue := make([]int, 0, len(t.Spans))
	for _, r := range t.roots {
		visited[r] = true
		t.depth[r] = 0
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, c := range t.children[i] {
			if visited[c] {
				return fmt.Errorf("%w: span %q reached twice", ErrCycle, t.Spans[c].SpanID)
			}
			visited[c] = true
			t.depth[c] = t.depth[i] + 1
			queue = append(queue, c)
		}
	}
	for i, v := range visited {
		if !v {
			return fmt.Errorf("%w: span %q unreachable from any root", ErrCycle, t.Spans[i].SpanID)
		}
	}
	return nil
}

// computeExclusiveDurations derives, for every span, the total time during
// which the span is running but none of its children are — the paper's
// "exclusive duration" (§3.2.2). For the Figure-2 trace: parent P gets
// (t1-t0)+(t5-t4), child A gets (t3-t1), child B gets (t4-t2).
func (t *Trace) computeExclusiveDurations() {
	t.exclusiveDur = make([]int64, len(t.Spans))
	for i, s := range t.Spans {
		kids := t.children[i]
		if len(kids) == 0 {
			t.exclusiveDur[i] = s.Duration()
			continue
		}
		// Children are ordered by start time, so once a child is counted
		// everything a later child covers before its end is counted already:
		// clip each child to the parent window and to that running end.
		covered, end := int64(0), s.Start
		for _, c := range kids {
			cs := t.Spans[c]
			if lo, hi := max(cs.Start, end), min(cs.End, s.End); hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		excl := s.Duration() - covered
		if excl < 0 {
			excl = 0
		}
		t.exclusiveDur[i] = excl
	}
}

// computeExclusiveErrors marks spans whose error cannot be attributed to a
// failing child: an erroring span with no erroring children has an
// exclusive error (§3.2.2).
func (t *Trace) computeExclusiveErrors() {
	t.exclusiveErr = make([]bool, len(t.Spans))
	for i, s := range t.Spans {
		if !s.Error {
			continue
		}
		childErr := false
		for _, c := range t.children[i] {
			if t.Spans[c].Error {
				childErr = true
				break
			}
		}
		t.exclusiveErr[i] = !childErr
	}
}

// Memo returns the value compute derives from the trace: the first call
// runs compute, at most once per trace however many goroutines ask, and
// every call returns its result. The value lives exactly as long as the
// trace. A trace has one such slot, and its one user is the clustering
// encoder, which keeps the trace's span-set codes there.
func (t *Trace) Memo(compute func() any) any {
	t.memo.once.Do(func() { t.memo.v = compute() })
	return t.memo.v
}

// Len returns the number of spans.
func (t *Trace) Len() int { return len(t.Spans) }

// Parent returns the index of span i's parent, or -1 for a root.
func (t *Trace) Parent(i int) int { return t.parent[i] }

// Children returns the child indexes of span i (ordered by start time).
// The returned slice must not be modified.
func (t *Trace) Children(i int) []int { return t.children[i] }

// Roots returns the indexes of the root spans.
func (t *Trace) Roots() []int { return t.roots }

// Depth returns the tree depth of span i (roots have depth 0).
func (t *Trace) Depth(i int) int { return t.depth[i] }

// MaxDepth returns the maximum span depth plus one, i.e. the number of
// levels — the "max depth" column of the paper's Table 1.
func (t *Trace) MaxDepth() int {
	max := 0
	for _, d := range t.depth {
		if d > max {
			max = d
		}
	}
	return max + 1
}

// MaxOutDegree returns the largest number of children of any span.
func (t *Trace) MaxOutDegree() int {
	max := 0
	for _, c := range t.children {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// ExclusiveDuration returns the exclusive duration of span i (µs).
func (t *Trace) ExclusiveDuration(i int) int64 { return t.exclusiveDur[i] }

// ExclusiveError reports whether span i has an exclusive error.
func (t *Trace) ExclusiveError(i int) bool { return t.exclusiveErr[i] }

// RootDuration returns the duration of the first root span — the trace's
// end-to-end latency as observed at the entry point.
func (t *Trace) RootDuration() int64 {
	if len(t.roots) == 0 {
		return 0
	}
	return t.Spans[t.roots[0]].Duration()
}

// HasError reports whether any span in the trace carries an error.
func (t *Trace) HasError() bool {
	for _, s := range t.Spans {
		if s.Error {
			return true
		}
	}
	return false
}

// Ancestors returns up to max ancestor indexes of span i, nearest first.
func (t *Trace) Ancestors(i, max int) []int {
	var out []int
	for p := t.parent[i]; p >= 0 && len(out) < max; p = t.parent[p] {
		out = append(out, p)
	}
	return out
}

// CriticalPath returns span indexes on the latency-critical path from the
// first root: at each level it descends into the child whose end time is
// the latest among synchronous children overlapping the tail of the parent.
func (t *Trace) CriticalPath() []int {
	if len(t.roots) == 0 {
		return nil
	}
	var path []int
	i := t.roots[0]
	for {
		path = append(path, i)
		best, bestEnd := -1, int64(-1)
		for _, c := range t.children[i] {
			cs := t.Spans[c]
			if !cs.Kind.Synchronous() {
				continue
			}
			if cs.End > bestEnd {
				best, bestEnd = c, cs.End
			}
		}
		if best < 0 {
			return path
		}
		i = best
	}
}

// Services returns the sorted set of distinct service names in the trace.
func (t *Trace) Services() []string {
	set := make(map[string]struct{})
	for _, s := range t.Spans {
		set[s.Service] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// GroupByTraceID partitions a flat span list by trace ID, preserving the
// relative order of spans within each trace.
func GroupByTraceID(spans []*Span) map[string][]*Span {
	out := make(map[string][]*Span)
	for _, s := range spans {
		out[s.TraceID] = append(out[s.TraceID], s)
	}
	return out
}

// AssembleAll groups spans by trace ID and assembles each group, skipping
// groups that hold a span Valid rejects or that fail assembly. It returns
// the traces sorted by trace ID for determinism, along with the number of
// groups skipped.
func AssembleAll(spans []*Span) (traces []*Trace, skipped int) {
	groups := GroupByTraceID(spans)
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		group := groups[id]
		if slices.ContainsFunc(group, func(s *Span) bool { return !s.Valid() }) {
			skipped++
			continue
		}
		t, err := Assemble(group)
		if err != nil {
			skipped++
			continue
		}
		traces = append(traces, t)
	}
	return traces, skipped
}
