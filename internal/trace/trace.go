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
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"
	"strings"
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

	// parent, depth, childAt, kids and roots are capped views into one
	// block of 4n+1 ints for a trace of n spans, r of them roots:
	//
	//	parent (n) | depth (n) | childAt (n+1) | kids (n-r) | roots (r)
	//
	// parent[i] is the index of span i's parent, or -1 for a root;
	// depth[i] is the distance from span i to its root (root = 0); span
	// i's children, ordered by start time, are kids[childAt[i]:childAt[i+1]];
	// roots lists the spans without a (present) parent.
	parent, depth, childAt, kids, roots []int

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

// spanOrder is the order of an assembled trace's spans: by start time,
// then by span ID.
func spanOrder(a, b *Span) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return strings.Compare(a.SpanID, b.SpanID)
}

// Assemble builds a Trace from a span list. Spans may arrive in any order.
// Orphan spans (parent ID referencing a missing span) are treated as roots,
// mirroring collector behaviour under partial data loss. The span slice is
// retained and sorted in place by start time (left as it is when already
// in order). A trace costs four allocations whatever its size: the struct,
// the int block its structure lives in and the two exclusive columns.
func Assemble(spans []*Span) (*Trace, error) {
	n := len(spans)
	if n == 0 {
		return nil, ErrEmptyTrace
	}
	tid := spans[0].TraceID
	for _, s := range spans {
		if s.TraceID != tid {
			return nil, fmt.Errorf("%w: %q and %q", ErrMixedTraces, tid, s.TraceID)
		}
	}
	if !slices.IsSortedFunc(spans, spanOrder) {
		slices.SortStableFunc(spans, spanOrder)
	}
	x := getIndex(n)
	defer x.put()
	for i, s := range spans {
		j, slot := x.lookup(spans, s.SpanID)
		if j >= 0 {
			return nil, fmt.Errorf("%w: %q", ErrDupSpanID, s.SpanID)
		}
		x.slots[slot] = int32(i + 1)
	}
	block := make([]int, 4*n+1)
	t := &Trace{
		TraceID: tid,
		Spans:   spans,
		parent:  block[:n:n],
		depth:   block[n : 2*n : 2*n],
		childAt: block[2*n : 3*n+1 : 3*n+1],
	}
	// Parent pass: resolve each parent and count its children one slot
	// ahead, so the prefix sum turns the counts into offsets.
	nroots := 0
	for i, s := range spans {
		p := -1
		if s.ParentID != "" {
			p, _ = x.lookup(spans, s.ParentID)
		}
		if p == i {
			return nil, fmt.Errorf("%w: span %q is its own parent", ErrCycle, s.SpanID)
		}
		t.parent[i] = p
		if p >= 0 {
			t.childAt[p+1]++
		} else {
			nroots++
		}
	}
	for i := 1; i <= n; i++ {
		t.childAt[i] += t.childAt[i-1]
	}
	rest := block[3*n+1:]
	t.kids, t.roots = rest[:n-nroots:n-nroots], rest[n-nroots:n-nroots]
	// Fill pass in index order, so every child list is in start order;
	// depth, not yet computed, serves as each parent's write cursor.
	copy(t.depth, t.childAt[:n])
	for i, p := range t.parent {
		if p >= 0 {
			t.kids[t.depth[p]] = i
			t.depth[p]++
		} else {
			t.roots = append(t.roots, i)
		}
	}
	if err := t.computeDepths(x); err != nil {
		return nil, err
	}
	t.computeExclusive()
	return t, nil
}

// computeDepths fills depth via BFS from the roots on the index's queue.
// Every span sits in exactly one child list or among the roots, so the
// BFS reaches each span at most once; a span it never reaches (depth
// left at -1) lies on a parent cycle.
func (t *Trace) computeDepths(x *index) error {
	for i := range t.depth {
		t.depth[i] = -1
	}
	queue := append(x.queue[:0], t.roots...)
	for _, r := range t.roots {
		t.depth[r] = 0
	}
	for head := 0; head < len(queue); head++ {
		for _, c := range t.Children(queue[head]) {
			t.depth[c] = t.depth[queue[head]] + 1
			queue = append(queue, c)
		}
	}
	x.queue = queue
	if i := slices.Index(t.depth, -1); i >= 0 {
		return fmt.Errorf("%w: span %q unreachable from any root", ErrCycle, t.Spans[i].SpanID)
	}
	return nil
}

// computeExclusive fills both exclusive columns in one pass over the
// child lists. The exclusive duration (§3.2.2) is the total time during
// which a span is running but none of its children are: for the Figure-2
// trace, parent P gets (t1-t0)+(t5-t4), child A gets (t3-t1), child B
// gets (t4-t2). An erroring span with no erroring children has an
// exclusive error: its error cannot be attributed to a failing child.
func (t *Trace) computeExclusive() {
	t.exclusiveDur = make([]int64, len(t.Spans))
	t.exclusiveErr = make([]bool, len(t.Spans))
	for i, s := range t.Spans {
		kids := t.Children(i)
		if len(kids) == 0 {
			t.exclusiveDur[i] = s.Duration()
			t.exclusiveErr[i] = s.Error
			continue
		}
		// Children are ordered by start time, so once a child is counted
		// everything a later child covers before its end is counted already:
		// clip each child to the parent window and to that running end.
		covered, end, childErr := int64(0), s.Start, false
		for _, c := range kids {
			cs := t.Spans[c]
			if lo, hi := max(cs.Start, end), min(cs.End, s.End); hi > lo {
				covered += hi - lo
				end = hi
			}
			childErr = childErr || cs.Error
		}
		t.exclusiveDur[i] = max(s.Duration()-covered, 0)
		t.exclusiveErr[i] = s.Error && !childErr
	}
}

// index is Assemble's pooled scratch: the BFS queue and an open-addressing
// table from span ID to span index, whose slots hold index+1 (0 is empty)
// and compare IDs through the spans. It holds no pointer, so nothing
// outlives its call through the pool.
type index struct {
	slots []int32
	queue []int
}

// maxPooled is the most spans an index may be sized for and still go
// back to the pool: a rare huge trace's table goes to the GC with it.
const maxPooled = 4096

var (
	indexes = sync.Pool{New: func() any { return new(index) }}
	idSeed  = maphash.MakeSeed()
)

// getIndex returns an empty pooled index for n spans, its table a power
// of two of at least 2n slots so that probes stay short.
func getIndex(n int) *index {
	x := indexes.Get().(*index)
	size := max(8, 1<<bits.Len(uint(2*n-1)))
	x.slots = slices.Grow(x.slots[:0], size)[:size]
	clear(x.slots)
	x.queue = slices.Grow(x.queue[:0], n)
	return x
}

// put returns x to the pool unless it was sized past maxPooled spans.
func (x *index) put() {
	if cap(x.queue) <= maxPooled {
		indexes.Put(x)
	}
}

// lookup returns the index of the span with ID id, or -1, and the slot
// its probe ended at: the one holding it, or the empty one to add it in.
func (x *index) lookup(spans []*Span, id string) (int, uint64) {
	mask := uint64(len(x.slots) - 1)
	h := maphash.String(idSeed, id) & mask
	for ; x.slots[h] != 0; h = (h + 1) & mask {
		if j := int(x.slots[h] - 1); spans[j].SpanID == id {
			return j, h
		}
	}
	return -1, h
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
func (t *Trace) Children(i int) []int {
	lo, hi := t.childAt[i], t.childAt[i+1]
	return t.kids[lo:hi:hi]
}

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
		for _, c := range t.Children(i) {
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

// AssembleAll groups spans by trace ID and assembles each group, skipping
// groups that hold a span Valid rejects or that fail assembly. It returns
// the traces sorted by trace ID for determinism, along with the number of
// groups skipped. It sorts one copy of spans on (trace ID, start, span
// ID), so each group is a run already in Assemble's order; the traces'
// Spans are capped views into that copy.
func AssembleAll(spans []*Span) (traces []*Trace, skipped int) {
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(a, b *Span) int {
		if c := strings.Compare(a.TraceID, b.TraceID); c != 0 {
			return c
		}
		return spanOrder(a, b)
	})
	groups := 0
	for i, s := range sorted {
		if i == 0 || s.TraceID != sorted[i-1].TraceID {
			groups++
		}
	}
	traces = make([]*Trace, 0, groups)
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].TraceID == sorted[0].TraceID {
			n++
		}
		group := sorted[:n:n]
		sorted = sorted[n:]
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
