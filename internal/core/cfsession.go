package core

import (
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/gnn"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// CounterfactualSession amortises the fixed cost of counterfactual queries
// against one trace. The localisation loop (§3.5) asks up to
// MaxCandidates counterfactual questions about the same trace with
// growing restoration sets. A session computes the encoding, the graph,
// the n normal-state lookups and the depth order
// once at construction and, because consecutive restoration sets are
// nested, applies or undoes only the delta rows between calls.
//
// For the default GIN aggregator the session is fully incremental after
// the first query: the convolution is row-local given the sibling-group
// sums, so a restoration toggle invalidates only the toggled span's
// sibling group and children in h, and the bottom-up Eq. 2 / Eq. 3 pass
// revisits only the dirty ancestor cone — O(branching × depth) work per
// query instead of O(n) MLP rows plus O(n) node recomputations.
//
// An incremental answer is bit-identical to the full recomputation a
// fresh session gives for the same restoration set (Model.Counterfactual),
// which TestCounterfactualSessionEquivalence gates.
//
// A session is not safe for concurrent use; concurrent localisations each
// open their own session. Close returns the arena to the shared pool.
type CounterfactualSession struct {
	m   *Model
	tr  *trace.Trace
	enc *features.Encoded

	// x/xStar view enc's own backings, which the session intervenes on in
	// place: Encode made enc for this session alone. Restored rows are
	// toggled between calls and undone from pristine, which keeps the two
	// columns an intervention overwrites, x[i][0:2] then xStar[i][0:2] at
	// 4i.
	x, xStar *tensor.Tensor
	pristine []float64

	normalDur  []float64 // µs restoration targets
	normalExcl []float64 // µs
	order      []int     // depth order, deepest first
	restored   []bool    // current intervention state per span
	dur, errp  []float64 // recompute scratch

	// inc is the row-incremental GIN evaluator (nil for aggregators
	// without a row-exact kernel, which fall back to full forwards). After
	// the first call primes it, hT caches the forward output, dur/errp
	// hold valid values for every node, and subsequent calls recompute
	// only affected h rows plus the dirty ancestor chain.
	inc     *gnn.GINIncremental
	hT      *tensor.Tensor
	dirty   []bool
	changed []int
	primed  bool

	ar          *tensor.Arena
	rowsUpdated int64
}

// NewCounterfactualSession pins tr's counterfactual state: encoding,
// graph, per-span normal lookups, depth order and feature buffers are all
// computed here, once, and reused by every Counterfactual call.
func (m *Model) NewCounterfactualSession(tr *trace.Trace) *CounterfactualSession {
	enc := m.Encode(tr)
	n := tr.Len()
	x, xStar := enc.Tensors()
	s := &CounterfactualSession{
		m:          m,
		tr:         tr,
		enc:        enc,
		x:          x,
		xStar:      xStar,
		pristine:   make([]float64, 4*n),
		normalDur:  make([]float64, n),
		normalExcl: make([]float64, n),
		order:      make([]int, n),
		restored:   make([]bool, n),
		dur:        make([]float64, n),
		errp:       make([]float64, n),
		ar:         arenaPool.Get().(*tensor.Arena),
	}
	for i := range tr.Spans {
		copy(s.pristine[4*i:], enc.X[i][:2])
		copy(s.pristine[4*i+2:], enc.XStar[i][:2])
		norm := m.Normal(tr.Spans[i].OpKey())
		s.normalDur[i] = math.Max(norm.MedianDuration, 1)
		s.normalExcl[i] = math.Max(norm.MedianExclusiveDuration, 1)
	}
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(a, b int) bool { return tr.Depth(s.order[a]) > tr.Depth(s.order[b]) })
	enc.Graph() // build (and cache) the adjacency now, outside the query loop
	if gin, ok := m.agg.(*gnn.GINSiblingConv); ok {
		s.inc = gin.NewIncremental(enc.Graph())
		if s.inc != nil {
			s.dirty = make([]bool, n)
			s.changed = make([]int, 0, 8)
		}
	}
	return s
}

// Counterfactual answers the §3.5 query (see Model.Counterfactual) for the
// session's trace. Only rows whose restoration state changed since the
// previous call are touched: newly restored rows are intervened to the
// normal state, rows no longer in the set are undone from the pristine
// encoding. restored is read, never retained.
func (s *CounterfactualSession) Counterfactual(restored map[int]bool) CounterfactualResult {
	n := s.tr.Len()
	s.changed = s.changed[:0]
	for i := 0; i < n; i++ {
		want := restored[i]
		if want == s.restored[i] {
			continue
		}
		s.restored[i] = want
		s.rowsUpdated++
		s.changed = append(s.changed, i)
		if want {
			s.x.Set(i, 0, features.ScaleDuration(int64(s.normalDur[i])))
			s.x.Set(i, 1, 0)
			s.xStar.Set(i, 0, features.ScaleDuration(int64(s.normalExcl[i])))
			s.xStar.Set(i, 1, 0)
		} else {
			s.x.Set(i, 0, s.pristine[4*i])
			s.x.Set(i, 1, s.pristine[4*i+1])
			s.xStar.Set(i, 0, s.pristine[4*i+2])
			s.xStar.Set(i, 1, s.pristine[4*i+3])
		}
	}
	isRestored := func(i int) bool { return s.restored[i] }
	if s.inc == nil {
		// No row-exact kernel for this aggregator: full forward per call.
		h := s.m.agg.Forward(s.enc.Graph(), s.ar.View(s.xStar), s.ar.View(s.x))
		res := s.m.counterfactualRecompute(s.tr, isRestored,
			s.normalDur, s.normalExcl, h, s.order, s.dur, s.errp)
		s.ar.Reset()
		return res
	}
	if !s.primed {
		// First query: one full forward primes the h and group-sum caches
		// and a full bottom-up pass fills dur/errp for every node.
		s.hT = s.inc.Prime(s.ar.View(s.xStar), s.ar.View(s.x))
		res := s.m.counterfactualRecompute(s.tr, isRestored,
			s.normalDur, s.normalExcl, s.hT, s.order, s.dur, s.errp)
		s.ar.Reset()
		s.primed = true
		return res
	}
	// Incremental query: recompute only the h rows whose inputs changed,
	// then revisit the dirty cone — toggled spans plus parents of changed
	// h rows — letting bit-identical recomputations stop the propagation.
	affected := s.inc.Update(s.xStar, s.x, s.changed)
	for _, i := range s.changed {
		s.dirty[i] = true
	}
	for _, r := range affected {
		if p := s.tr.Parent(r); p >= 0 {
			s.dirty[p] = true
		}
	}
	return s.m.counterfactualRecomputeDirty(s.tr, isRestored,
		s.normalDur, s.normalExcl, s.hT, s.order, s.dur, s.errp, s.dirty)
}

// RowsUpdated reports how many feature-row toggles the session has applied
// across all Counterfactual calls — the delta work actually done.
func (s *CounterfactualSession) RowsUpdated() int64 { return s.rowsUpdated }

// Close returns the session's arena to the shared pool. The session must
// not be used afterwards.
func (s *CounterfactualSession) Close() {
	if s.ar != nil {
		s.ar.Reset()
		arenaPool.Put(s.ar)
		s.ar = nil
	}
}
