package cluster

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// TraceSets encodes every trace with the given ancestor window against one
// vocabulary built for the batch, with the IDs, weights and masses a serial
// TraceSet loop over a fresh Interner produces.
//
// A trace is encoded once per ancestor window, not once per batch: the
// first batch that meets it stores its codes on the trace (trace.Memo) —
// its identifiers as IDs of the process-wide identifier table, in
// first-span order, with the weights summed in span order — and later
// batches gather them. Batch IDs are handed out in first-seen order by
// walking the batch's codes in order through a remap indexed by table ID;
// each trace then translates its IDs, puts them in ascending order and sums
// its mass in that order, which is exactly what TraceSet does from the
// spans.
func TraceSets(traces []*trace.Trace, dmax int) []WeightedSet {
	// A pass fails only when the identifier table started over while it
	// ran, leaving the batch's codes in two generations; the second pass
	// re-encodes the stale ones. A batch with more distinct identifiers
	// than the table holds fails both and is encoded from its spans.
	for pass := 0; pass < 2; pass++ {
		if out, ok := gather(traces, dmax); ok {
			return out
		}
	}
	in := NewInterner()
	out := make([]WeightedSet, len(traces))
	for i, tr := range traces {
		out[i] = TraceSet(in, tr, dmax)
	}
	return out
}

// identifierLimit bounds the identifier table: once it holds this many
// identifiers, the next trace an encoder translates starts it over under
// a new generation, and codes from older generations are encoded again
// when a batch meets them. A window of 480 Synthetic-256 traces holds
// about 1 200 distinct identifiers, so the table spans dozens of such
// windows.
const identifierLimit = 1 << 16

// idTable is the process-wide identifier table the codes cached on traces
// refer to. IDs are given in first-intern order within a generation. A
// restart replaces names instead of truncating it, so a names slice read
// under mu keeps naming its generation's IDs.
type idTable struct {
	mu    sync.Mutex
	gen   atomic.Uint32 // written under mu
	limit int
	ids   map[string]int32
	names []string
}

var identifiers = idTable{limit: identifierLimit, ids: map[string]int32{}}

// translate gives table IDs to the identifiers of the trace e has just
// tallied that e.global lacks, first starting the table over if it is full
// and forgetting all of e.global if the table's generation is not the one
// it was filled under. The table thus outgrows its limit by at most one
// trace's identifiers.
func (t *idTable) translate(e *encoder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.names) >= t.limit {
		t.ids, t.names = map[string]int32{}, nil
		t.gen.Add(1)
	}
	if g := t.gen.Load(); g != e.gen {
		e.gen = g
		for k := range e.global {
			e.global[k] = -1
		}
	}
	for _, id := range e.in.touched {
		if e.global[id] >= 0 {
			continue
		}
		s := e.in.names[id]
		global, ok := t.ids[s]
		if !ok {
			global = int32(len(t.names))
			t.ids[s] = global
			t.names = append(t.names, s)
		}
		e.global[id] = global
	}
}

// codes is one trace's span set at one ancestor window, over the
// identifier table's generation gen: table IDs in first-span order, each
// with its spans' weights summed in span order. Codes are never modified
// once stored.
type codes struct {
	dmax int
	gen  uint32
	ids  []int32
	w    []float64
}

// traceCodes is what a trace memoises: its codes, one per ancestor window
// it was encoded at.
type traceCodes struct {
	mu  sync.Mutex
	all []codes
}

func newTraceCodes() any { return new(traceCodes) }

// codesOf returns tr's codes at dmax, and false when tr has none.
func codesOf(tr *trace.Trace, dmax int) (*traceCodes, codes, bool) {
	tc := tr.Memo(newTraceCodes).(*traceCodes)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, c := range tc.all {
		if c.dmax == dmax {
			return tc, c, true
		}
	}
	return tc, codes{}, false
}

// put stores c, replacing the codes at the same window.
func (tc *traceCodes) put(c codes) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for k := range tc.all {
		if tc.all[k].dmax == c.dmax {
			tc.all[k] = c
			return
		}
	}
	tc.all = append(tc.all, c)
}

// encoder is one worker's scratch for the traces a batch finds without
// current codes: a private Interner that does TraceSet's per-span work, and
// global[id], the table ID of its identifier id under generation gen (-1
// while it has none).
type encoder struct {
	in     *Interner
	global []int32
	gen    uint32
}

// encoderPool recycles encoders across TraceSets calls, so that a fresh
// trace's identifiers are mostly ones the scratch Interner holds already:
// its spans cost map lookups, not a string and a table lookup each.
var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// encode derives tr's codes from its spans.
func (e *encoder) encode(tr *trace.Trace, dmax int) codes {
	if g := identifiers.gen.Load(); e.in == nil || e.gen != g {
		// The scratch holds one generation's identifiers at most.
		e.in, e.global, e.gen = NewInterner(), e.global[:0], g
	}
	in := e.in
	in.tally(tr, dmax)
	for len(e.global) < in.Size() {
		e.global = append(e.global, -1)
	}
	if e.gen != identifiers.gen.Load() || slices.ContainsFunc(in.touched, func(id int32) bool { return e.global[id] < 0 }) {
		identifiers.translate(e)
	}
	c := codes{dmax: dmax, gen: e.gen, ids: make([]int32, len(in.touched)), w: make([]float64, len(in.touched))}
	for k, id := range in.touched {
		c.ids[k] = e.global[id]
		c.w[k], in.acc[id] = in.acc[id], 0
	}
	return c
}

// gather is one TraceSets pass. It reports false, and no sets, when the
// batch's codes do not all come from the table's current generation.
func gather(traces []*trace.Trace, dmax int) ([]WeightedSet, bool) {
	n := len(traces)
	out := make([]WeightedSet, n)
	if n == 0 {
		return out, true
	}
	gen := identifiers.gen.Load()
	all := make([]codes, n)
	encoders := make([]*encoder, par.Workers(n))
	par.For(n, func(w, i int) {
		tc, c, ok := codesOf(traces[i], dmax)
		if !ok || c.gen != gen {
			if encoders[w] == nil {
				encoders[w] = encoderPool.Get().(*encoder)
			}
			c = encoders[w].encode(traces[i], dmax)
			tc.put(c)
		}
		all[i] = c
	})
	for _, e := range encoders {
		if e != nil {
			encoderPool.Put(e)
		}
	}

	identifiers.mu.Lock()
	names, cur := identifiers.names, identifiers.gen.Load()
	identifiers.mu.Unlock()
	for _, c := range all {
		if c.gen != cur {
			return nil, false
		}
	}
	// remap[id] is table ID id's batch ID plus one, 0 until first seen.
	// The batch's vocabulary holds its identifiers' names and no index:
	// its sets are compared by Distance and Pairwise, which read neither,
	// and nothing encodes against it.
	remap := make([]int32, len(names))
	vocab := &Interner{}
	total := 0
	for _, c := range all {
		total += len(c.ids)
		for _, id := range c.ids {
			if remap[id] == 0 {
				vocab.names = append(vocab.names, names[id])
				remap[id] = int32(len(vocab.names))
			}
		}
	}
	// The sets' IDs and weights are cut from two blocks.
	ids, ws := make([]int32, total), make([]float64, total)
	for i, c := range all {
		k := len(c.ids)
		out[i] = WeightedSet{ids: ids[:k:k], w: ws[:k:k], vocab: vocab}
		ids, ws = ids[k:], ws[k:]
	}

	// Worker w sorts a trace's batch IDs by marking them in seen[w], a
	// bitset over the batch's vocabulary, and reading the marks back in
	// ascending order, with each ID's weight parked in acc[w].
	words := (len(vocab.names) + 63) / 64
	seen, acc := make([][]uint64, par.Workers(n)), make([][]float64, par.Workers(n))
	par.For(n, func(w, i int) {
		if seen[w] == nil {
			seen[w], acc[w] = make([]uint64, words), make([]float64, len(vocab.names))
		}
		c, s := all[i], &out[i]
		for k, id := range c.ids {
			b := remap[id] - 1
			seen[w][b/64] |= 1 << (b % 64)
			acc[w][b] = c.w[k]
		}
		ids, ws, k := s.ids, s.w, 0
		for x, word := range seen[w] {
			for ; word != 0; word &= word - 1 {
				b := int32(x*64 + bits.TrailingZeros64(word))
				ids[k], ws[k] = b, acc[w][b]
				k++
			}
			seen[w][x] = 0
		}
		s.mass = sum(ws)
	})
	return out, true
}
