// Package store implements the distributed trace storage engine of §4 at
// single-process scale: append-oriented span storage with trace/service/
// time indexes, predicate queries with parallel scans, derived per-
// operation statistics (the computations the paper offloads to SQL
// operators — exclusive durations, medians, percentiles), and JSONL
// persistence.
//
// The store is sharded by trace-ID hash (default GOMAXPROCS shards): writers touching different traces lock
// different shards, predicate scans fan out over the shards on par.For, and a
// Limit query stops each shard's scan as soon as it has enough matches —
// the abnormal-trace fetch stays flat as the corpus grows instead of
// snapshotting the whole corpus under one big lock.
//
// Derived columns are computed store-side once per trace version: the first
// query that reaches a trace assembles it (tree structure, exclusive
// durations, the predicate row) and memoises the result; every later query
// reads the memo, and the next write to that trace drops it. Nothing is
// assembled at write time, so traces nobody reads cost one small entry.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// shard is one lock domain of the store: the traces whose ID hashes here,
// with their own insertion order and service index.
type shard struct {
	mu sync.RWMutex

	// stored traces by ID, insertion-ordered trace list.
	byTrace map[string]*entry
	order   []string

	// service index: service name → trace IDs containing it.
	byService map[string]map[string]struct{}

	spanCount int
}

// entry is one stored trace: its spans in arrival order (append-only, so
// the length is the version) and the memoised assembly of that version.
type entry struct {
	spans []*trace.Span
	memo  *memo // nil until the first read after a write
}

// memo is the immutable assembled form of one version of a trace plus the
// row a query's predicates read; tr is nil when that version fails assembly
// (duplicate span ID, parent cycle), which no query can then match.
type memo struct {
	tr                 *trace.Trace
	rootStart, rootDur int64
	hasError           bool
}

func newShard() *shard {
	return &shard{
		byTrace:   make(map[string]*entry),
		byService: make(map[string]map[string]struct{}),
	}
}

// Store is a thread-safe sharded trace store.
type Store struct {
	shards []*shard
}

// DefaultShards returns the shard count used by New: GOMAXPROCS.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// New creates an empty Store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards()) }

// NewSharded creates an empty Store with n shards (n < 1 is treated as 1).
func NewSharded(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = newShard()
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
		set, ok := sh.byService[sp.Service]
		if !ok {
			set = make(map[string]struct{})
			sh.byService[sp.Service] = set
		}
		set[sp.TraceID] = struct{}{}
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

// Query filters traces. Zero values mean "no constraint".
type Query struct {
	// TraceIDs restricts to specific traces (duplicates are ignored).
	TraceIDs []string
	// Service restricts to traces touching the service (index-accelerated).
	Service string
	// MinStart/MaxStart bound the root span start time (µs).
	MinStart, MaxStart int64
	// OnlyErrors keeps traces containing at least one error span.
	OnlyErrors bool
	// MinRootDuration keeps traces at least this slow end-to-end (µs).
	MinRootDuration int64
	// Limit caps the number of returned traces (0 = unlimited).
	Limit int
}

// match returns trace id if it satisfies q, nil otherwise. A trace with no
// memo is assembled here from a copy of its spans, outside any lock, and the
// memo published only if no span arrived meanwhile: racing readers may both
// assemble one version, none can publish a stale one.
func (sh *shard) match(id string, q Query) *trace.Trace {
	sh.mu.RLock()
	e := sh.byTrace[id]
	if e != nil && q.Service != "" {
		if _, touches := sh.byService[q.Service][id]; !touches {
			e = nil
		}
	}
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
			root := tr.Spans[tr.Roots()[0]]
			*m = memo{tr, root.Start, root.Duration(), tr.HasError()}
		}
		sh.mu.Lock()
		if len(e.spans) == len(spans) {
			e.memo = m
		}
		sh.mu.Unlock()
	}
	if m.tr == nil ||
		(q.MinStart != 0 && m.rootStart < q.MinStart) ||
		(q.MaxStart != 0 && m.rootStart > q.MaxStart) ||
		(q.OnlyErrors && !m.hasError) ||
		(q.MinRootDuration != 0 && m.rootDur < q.MinRootDuration) {
		return nil
	}
	return m.tr
}

// candidates snapshots the shard's candidate trace IDs for a query: the
// service index when the query names a service, insertion order otherwise.
// Only the ID list is copied — traces are looked up one at a time during the
// scan, so a Limit query touches only as many as it inspects.
func (sh *shard) candidates(q Query) []string {
	sh.mu.RLock()
	var ids []string
	if q.Service != "" {
		set := sh.byService[q.Service]
		if len(set) > 0 {
			ids = make([]string, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
		}
	} else if len(sh.order) > 0 {
		ids = append([]string(nil), sh.order...)
	}
	sh.mu.RUnlock()
	if q.Service != "" {
		sort.Strings(ids)
	}
	return ids
}

// scan filters this shard's candidates, stopping as soon as q.Limit matches
// are found.
func (sh *shard) scan(q Query) []*trace.Trace {
	var out []*trace.Trace
	for _, id := range sh.candidates(q) {
		if tr := sh.match(id, q); tr != nil {
			out = append(out, tr)
			if q.Limit > 0 && len(out) >= q.Limit {
				break
			}
		}
	}
	return out
}

// Traces runs a query. Traces whose spans fail assembly are skipped. Shards
// are scanned in parallel; each shard's scan exits early once it alone could
// satisfy q.Limit, so small limits touch a small prefix of the corpus
// instead of snapshotting it.
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
		if q.Limit > 0 && len(out) >= q.Limit {
			out = out[:q.Limit]
			break
		}
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
			if q.Limit > 0 && len(out) >= q.Limit {
				break
			}
		}
	}
	return out
}

// OpSummary is a derived per-operation statistics row (the "SQL-offloaded"
// aggregate the RCA pipeline consumes for normal states and thresholds).
type OpSummary struct {
	OpKey  string
	Count  int
	Median float64
	P95    float64
	P99    float64
	// MedianExclusive is the median exclusive duration.
	MedianExclusive float64
	ErrorRate       float64
}

// OpSummaries computes per-operation aggregates over the whole store.
func (s *Store) OpSummaries() []OpSummary {
	traces := s.Traces(Query{})
	durs := map[string][]float64{}
	excl := map[string][]float64{}
	errs := map[string]int{}
	for _, tr := range traces {
		for i, sp := range tr.Spans {
			k := sp.OpKey()
			durs[k] = append(durs[k], float64(sp.Duration()))
			excl[k] = append(excl[k], float64(tr.ExclusiveDuration(i)))
			if sp.Error {
				errs[k]++
			}
		}
	}
	keys := make([]string, 0, len(durs))
	for k := range durs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]OpSummary, 0, len(keys))
	for _, k := range keys {
		ds := durs[k]
		out = append(out, OpSummary{
			OpKey:           k,
			Count:           len(ds),
			Median:          stats.Percentile(ds, 50),
			P95:             stats.Percentile(ds, 95),
			P99:             stats.Percentile(ds, 99),
			MedianExclusive: stats.Percentile(excl[k], 50),
			ErrorRate:       float64(errs[k]) / float64(len(ds)),
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

// Services returns the sorted service names present in the store.
func (s *Store) Services() []string {
	set := make(map[string]struct{})
	for _, sh := range s.shards {
		sh.mu.RLock()
		for svc := range sh.byService {
			set[svc] = struct{}{}
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for svc := range set {
		out = append(out, svc)
	}
	sort.Strings(out)
	return out
}
