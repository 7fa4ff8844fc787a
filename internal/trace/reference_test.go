package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// refTrace is the straightforward assembly Assemble must agree with: a map
// for the span-ID index, one child slice per span grown by append, a BFS
// over a fresh queue and one pass per exclusive column. FuzzAssemble holds
// the pooled one-block assembly to it.
type refTrace struct {
	TraceID      string
	Spans        []*Span
	parent       []int
	children     [][]int
	roots        []int
	depth        []int
	exclusiveDur []int64
	exclusiveErr []bool
}

func refAssemble(spans []*Span) (*refTrace, error) {
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
	t := &refTrace{
		TraceID:      tid,
		Spans:        spans,
		parent:       make([]int, len(spans)),
		children:     make([][]int, len(spans)),
		depth:        make([]int, len(spans)),
		exclusiveDur: make([]int64, len(spans)),
		exclusiveErr: make([]bool, len(spans)),
	}
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
			t.children[p] = append(t.children[p], i)
		} else {
			t.roots = append(t.roots, i)
		}
	}
	visited := make([]bool, len(spans))
	var queue []int
	for _, r := range t.roots {
		visited[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, c := range t.children[i] {
			if visited[c] {
				return nil, fmt.Errorf("%w: span %q reached twice", ErrCycle, spans[c].SpanID)
			}
			visited[c] = true
			t.depth[c] = t.depth[i] + 1
			queue = append(queue, c)
		}
	}
	for i, v := range visited {
		if !v {
			return nil, fmt.Errorf("%w: span %q unreachable from any root", ErrCycle, spans[i].SpanID)
		}
	}
	for i, s := range spans {
		if len(t.children[i]) == 0 {
			t.exclusiveDur[i] = s.Duration()
			continue
		}
		covered, end := int64(0), s.Start
		for _, c := range t.children[i] {
			cs := spans[c]
			if lo, hi := max(cs.Start, end), min(cs.End, s.End); hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		t.exclusiveDur[i] = max(s.Duration()-covered, 0)
	}
	for i, s := range spans {
		if s.Error {
			t.exclusiveErr[i] = !slices.ContainsFunc(t.children[i], func(c int) bool { return spans[c].Error })
		}
	}
	return t, nil
}

// refCriticalPath is CriticalPath over the reference structure.
func (t *refTrace) refCriticalPath() []int {
	var path []int
	for i := t.roots[0]; ; {
		path = append(path, i)
		best, bestEnd := -1, int64(-1)
		for _, c := range t.children[i] {
			if cs := t.Spans[c]; cs.Kind.Synchronous() && cs.End > bestEnd {
				best, bestEnd = c, cs.End
			}
		}
		if best < 0 {
			return path
		}
		i = best
	}
}

// refAssembleAll groups spans in a map of growing slices, assembles the
// groups in trace-ID order and skips a group holding an invalid span or
// failing assembly.
func refAssembleAll(spans []*Span) (traces []*refTrace, skipped int) {
	groups := make(map[string][]*Span)
	for _, s := range spans {
		groups[s.TraceID] = append(groups[s.TraceID], s)
	}
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
		t, err := refAssemble(group)
		if err != nil {
			skipped++
			continue
		}
		traces = append(traces, t)
	}
	return traces, skipped
}
