// Package store implements the distributed trace storage engine of §4 at
// single-process scale: append-oriented span storage indexed by trace ID,
// three reads — a root-start time window, a list of trace IDs, or every
// trace — per-operation latency and error aggregates, and JSONL
// persistence.
//
// The store is sharded by trace-ID hash (GOMAXPROCS shards by default):
// writers touching different traces lock different shards, and window and
// all-trace scans fan out over the shards on par.For.
//
// Derived columns are computed store-side once per trace version: the first
// query that reaches a trace assembles it (tree structure, exclusive
// durations, the root start a window reads) and memoises the result; every
// later query reads the memo, and the next write to that trace drops it.
// Nothing is assembled at write time, so traces nobody reads cost one small
// entry.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// shard is one lock domain of the store: the traces whose ID hashes here,
// in their own insertion order.
type shard struct {
	mu sync.RWMutex

	// stored traces by ID, insertion-ordered trace list.
	byTrace map[string]*entry
	order   []string

	spanCount int
}

// entry is one stored trace: its spans in arrival order (append-only, so
// the length is the version) and the memoised assembly of that version.
type entry struct {
	spans []*trace.Span
	memo  *memo // nil until the first read after a write
}

// memo is the immutable assembled form of one version of a trace plus the
// root start a window reads; tr is nil when that version fails assembly
// (duplicate span ID, parent cycle), which no query can then match.
type memo struct {
	tr        *trace.Trace
	rootStart int64
}

// Store is a thread-safe sharded trace store.
type Store struct {
	shards []*shard
}

// New creates an empty Store with GOMAXPROCS shards.
func New() *Store { return NewSharded(runtime.GOMAXPROCS(0)) }

// NewSharded creates an empty Store with n shards (n < 1 is treated as 1).
func NewSharded(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{byTrace: make(map[string]*entry)}
	}
	return s
}

// Shards returns the number of shards.
func (s *Store) Shards() int { return len(s.shards) }

// shardIndex hashes a trace ID onto a shard with FNV-1a.
func shardIndex(id string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

func (s *Store) shardFor(id string) *shard { return s.shards[shardIndex(id, len(s.shards))] }

// add ingests spans into one shard. Every span must hash to this shard.
func (sh *shard) add(spans []*trace.Span) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, sp := range spans {
		e := sh.byTrace[sp.TraceID]
		if e == nil {
			e = &entry{}
			sh.byTrace[sp.TraceID] = e
			sh.order = append(sh.order, sp.TraceID)
		}
		e.spans, e.memo = append(e.spans, sp), nil
		sh.spanCount++
	}
}

// AddSpans ingests spans (any mix of traces, any order).
func (s *Store) AddSpans(spans []*trace.Span) {
	if len(spans) == 0 {
		return
	}
	n := len(s.shards)
	if n == 1 {
		s.shards[0].add(spans)
		return
	}
	// Fast path: batches carrying a single trace (the common shape from the
	// ingest writer) land on one shard with one lock acquisition.
	first := shardIndex(spans[0].TraceID, n)
	uniform := true
	for _, sp := range spans[1:] {
		if shardIndex(sp.TraceID, n) != first {
			uniform = false
			break
		}
	}
	if uniform {
		s.shards[first].add(spans)
		return
	}
	buckets := make([][]*trace.Span, n)
	for _, sp := range spans {
		i := shardIndex(sp.TraceID, n)
		buckets[i] = append(buckets[i], sp)
	}
	for i, b := range buckets {
		if len(b) > 0 {
			s.shards[i].add(b)
		}
	}
}

// AddTrace ingests an assembled trace.
func (s *Store) AddTrace(tr *trace.Trace) { s.AddSpans(tr.Spans) }

// SpanCount returns the number of stored spans.
func (s *Store) SpanCount() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.spanCount
		sh.mu.RUnlock()
	}
	return total
}

// TraceCount returns the number of stored traces.
func (s *Store) TraceCount() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += len(sh.order)
		sh.mu.RUnlock()
	}
	return total
}

// Query selects traces. Zero values mean "no constraint", so Query{} reads
// every trace.
type Query struct {
	// TraceIDs restricts to specific traces (duplicates are ignored).
	TraceIDs []string
	// MinStart/MaxStart bound the root span start time (µs).
	MinStart, MaxStart int64
}

// match returns trace id if it satisfies q, nil otherwise. A trace with no
// memo is assembled here from a copy of its spans, outside any lock, and the
// memo published only if no span arrived meanwhile: racing readers may both
// assemble one version, none can publish a stale one.
func (sh *shard) match(id string, q Query) *trace.Trace {
	sh.mu.RLock()
	e := sh.byTrace[id]
	if e == nil {
		sh.mu.RUnlock()
		return nil
	}
	m := e.memo
	var spans []*trace.Span
	if m == nil {
		spans = append(spans, e.spans...)
	}
	sh.mu.RUnlock()
	if m == nil {
		m = &memo{}
		if tr, err := trace.Assemble(spans); err == nil {
			*m = memo{tr, tr.Spans[tr.Roots()[0]].Start}
		}
		sh.mu.Lock()
		if len(e.spans) == len(spans) {
			e.memo = m
		}
		sh.mu.Unlock()
	}
	if m.tr == nil ||
		(q.MinStart != 0 && m.rootStart < q.MinStart) ||
		(q.MaxStart != 0 && m.rootStart > q.MaxStart) {
		return nil
	}
	return m.tr
}

// scan returns this shard's traces that satisfy q, in insertion order. Only
// the ID list is copied under the lock; traces are looked up one at a time.
func (sh *shard) scan(q Query) []*trace.Trace {
	sh.mu.RLock()
	ids := append([]string(nil), sh.order...)
	sh.mu.RUnlock()
	var out []*trace.Trace
	for _, id := range ids {
		if tr := sh.match(id, q); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Traces runs a query. Traces whose spans fail assembly are skipped. An
// explicit-ID query answers in request order; any other query scans the
// shards in parallel and returns each shard's matches in insertion order,
// shard by shard.
//
// The returned traces are the store's memoised assemblies, shared with
// every other query that matches them: callers must treat a trace, its
// Spans slice and the spans themselves as read-only. A trace is a complete
// snapshot of the spans stored when it was assembled and never changes; a
// later span produces a new *trace.Trace on the next query.
func (s *Store) Traces(q Query) []*trace.Trace {
	if len(q.TraceIDs) > 0 {
		return s.tracesByID(q)
	}
	results := make([][]*trace.Trace, len(s.shards))
	par.For(len(s.shards), func(_, i int) {
		results[i] = s.shards[i].scan(q)
	})
	var out []*trace.Trace
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// tracesByID serves an explicit-ID query in request order, skipping
// duplicate IDs so a repeated ID cannot return the same trace twice.
func (s *Store) tracesByID(q Query) []*trace.Trace {
	seen := make(map[string]struct{}, len(q.TraceIDs))
	var out []*trace.Trace
	for _, id := range q.TraceIDs {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if tr := s.shardFor(id).match(id, q); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// OpSummary is one operation's latency and error aggregate over the stored
// spans: the tail sampler's latency baseline and the `sleuthctl ops` table.
type OpSummary struct {
	OpKey     string
	Count     int
	Median    float64
	P95       float64
	P99       float64
	ErrorRate float64
}

// OpSummaries computes per-operation aggregates over every stored span,
// those of traces that fail assembly included. It reads the spans as
// stored and assembles nothing: each shard's span pointers are copied
// under its read lock and aggregated outside it. Spans are grouped on
// their (service, name, kind) fields, so a call builds one OpKey per
// operation, not per span, and its allocations grow with the operations.
func (s *Store) OpSummaries() []OpSummary {
	var spans []*trace.Span
	for _, sh := range s.shards {
		sh.mu.RLock()
		spans = slices.Grow(spans, sh.spanCount)
		for _, id := range sh.order {
			spans = append(spans, sh.byTrace[id].spans...)
		}
		sh.mu.RUnlock()
	}
	type op struct {
		service, name string
		kind          trace.Kind
	}
	type agg struct {
		key             string
		count, errs, at int // at: the next free slot of the op's run of durs
	}
	// Two operations whose fields join to one OpKey (a \x1f inside a name)
	// share a row, as they share a key.
	index, byKey := map[op]int{}, map[string]int{}
	var aggs []agg
	ops := make([]int, len(spans)) // span → its agg
	for i, sp := range spans {
		k := op{sp.Service, sp.Name, sp.Kind}
		j, ok := index[k]
		if !ok {
			key := sp.OpKey()
			if j, ok = byKey[key]; !ok {
				j = len(aggs)
				byKey[key] = j
				aggs = append(aggs, agg{key: key})
			}
			index[k] = j
		}
		ops[i] = j
		aggs[j].count++
		if sp.Error {
			aggs[j].errs++
		}
	}
	// One durations array, each op's run of it sized by its count.
	at := 0
	for j := range aggs {
		aggs[j].at, at = at, at+aggs[j].count
	}
	durs := make([]float64, len(spans))
	for i, sp := range spans {
		a := &aggs[ops[i]]
		durs[a.at] = float64(sp.Duration())
		a.at++
	}
	slices.SortFunc(aggs, func(a, b agg) int { return strings.Compare(a.key, b.key) })
	out := make([]OpSummary, 0, len(aggs))
	for _, a := range aggs {
		ds := durs[a.at-a.count : a.at]
		sort.Float64s(ds)
		out = append(out, OpSummary{
			OpKey:     a.key,
			Count:     a.count,
			Median:    stats.PercentileSorted(ds, 50),
			P95:       stats.PercentileSorted(ds, 95),
			P99:       stats.PercentileSorted(ds, 99),
			ErrorRate: float64(a.errs) / float64(a.count),
		})
	}
	return out
}

// SaveJSONL writes every span as one JSON line, shard by shard in each
// shard's insertion order.
func (s *Store) SaveJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, id := range sh.order {
			for _, sp := range sh.byTrace[id].spans {
				if err := enc.Encode(sp); err != nil {
					sh.mu.RUnlock()
					return fmt.Errorf("store: encoding span: %w", err)
				}
			}
		}
		sh.mu.RUnlock()
	}
	return bw.Flush()
}

// LoadJSONL ingests spans from a JSONL stream. Lines of any length are
// accepted; malformed lines and spans the ingest normalize stage would
// reject (trace.Span.Valid) are skipped and counted (mirroring the
// collector's skip-and-count policy) rather than aborting the load. It
// returns the number of skipped lines; the error is non-nil only for I/O
// failures on the underlying reader.
func (s *Store) LoadJSONL(r io.Reader) (skipped int, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var batch []*trace.Span
	for {
		line, rerr := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var sp trace.Span
			if jerr := json.Unmarshal(trimmed, &sp); jerr != nil || !sp.Valid() {
				skipped++
			} else {
				cp := sp
				batch = append(batch, &cp)
				if len(batch) >= 4096 {
					s.AddSpans(batch)
					batch = batch[:0]
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return skipped, rerr
		}
	}
	if len(batch) > 0 {
		s.AddSpans(batch)
	}
	return skipped, nil
}

// SaveFile writes the store to a JSONL file.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.SaveJSONL(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a JSONL file into the store, returning the number of
// skipped (malformed) lines.
func (s *Store) LoadFile(path string) (skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.LoadJSONL(f)
}
