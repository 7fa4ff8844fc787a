package core

import (
	"math"
	"sync"

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
// Sessions are pooled: every buffer a session owns — the encoding and its
// graph, the GIN evaluator's rows and h, the per-span state below — is
// recycled by the next session once Close returns it, so opening one
// allocates nothing once the pool holds a session as large as the trace.
// A session is not safe for concurrent use; concurrent localisations each
// open their own session.
type CounterfactualSession struct {
	m   *Model
	tr  *trace.Trace
	enc *features.Encoded

	// x/xStar view enc's own backings, which the session intervenes on in
	// place: the session encoded tr into a buffer only it holds. Restored
	// rows are toggled between calls and undone from pristine, which keeps
	// the two columns an intervention overwrites, x[i][0:2] then
	// xStar[i][0:2] at 4i.
	x, xStar *tensor.Tensor
	pristine []float64

	normal    []NormalStats // per span, looked up once at open
	order     []int         // depth order, deepest first
	depthPos  []int         // counting-pass cursor per depth
	restored  []bool        // current intervention state per span
	dur, errp []float64     // recompute scratch

	// inc is the row-incremental GIN evaluator (nil for aggregators
	// without a row-exact kernel, which fall back to full forwards on ar).
	// After the first call primes it, hT caches the forward output,
	// dur/errp hold valid values for every node, and subsequent calls
	// recompute only affected h rows plus the dirty ancestor chain.
	inc     *gnn.GINIncremental
	hT      *tensor.Tensor
	dirty   []bool
	changed []int
	primed  bool

	ar          *tensor.Arena
	rowsUpdated int64
}

// sessionPool recycles closed sessions with everything they own. A
// session's buffers are sized by the traces it has seen, so the pool keeps
// the localisation loop off the allocator and the GC; sync.Pool lets the
// GC reclaim idle sessions under memory pressure.
var sessionPool = sync.Pool{New: func() any { return new(CounterfactualSession) }}

// NewCounterfactualSession pins tr's counterfactual state: encoding,
// graph, per-span normal lookups, depth order and feature buffers are all
// computed here, once, and reused by every Counterfactual call. tr must
// have at least one span.
func (m *Model) NewCounterfactualSession(tr *trace.Trace) *CounterfactualSession {
	s := sessionPool.Get().(*CounterfactualSession)
	s.open(m, tr)
	return s
}

// open binds s to tr, resizing and overwriting every buffer it reuses.
func (s *CounterfactualSession) open(m *Model, tr *trace.Trace) {
	n := tr.Len()
	s.m, s.tr = m, tr
	s.enc = m.encoder.EncodeInto(tr, s.enc)
	s.x, s.xStar = s.enc.Tensors()
	s.pristine = resize(s.pristine, 4*n)
	for i := 0; i < n; i++ {
		copy(s.pristine[4*i:], s.enc.X[i][:2])
		copy(s.pristine[4*i+2:], s.enc.XStar[i][:2])
	}
	s.normal = m.SpanNormals(tr, s.normal)
	s.depthOrder()
	s.restored = resize(s.restored, n)
	clear(s.restored)
	s.dur = resize(s.dur, n)
	s.errp = resize(s.errp, n)
	s.dirty = resize(s.dirty, n)
	clear(s.dirty)
	s.changed = s.changed[:0]
	s.hT, s.primed, s.rowsUpdated = nil, false, 0
	gin, ok := m.agg.(*gnn.GINSiblingConv)
	if !ok {
		s.inc = nil
		return
	}
	s.inc = gin.ResetIncremental(s.inc, s.enc.Graph())
}

// depthOrder fills order deepest first with one counting pass over the
// span depths. Any deepest-first order gives the same answers, because a
// node's Eq. 2 / Eq. 3 values read only its children's.
func (s *CounterfactualSession) depthOrder() {
	tr := s.tr
	n := tr.Len()
	s.order = resize(s.order, n)
	s.depthPos = resize(s.depthPos, tr.MaxDepth())
	clear(s.depthPos)
	for i := 0; i < n; i++ {
		s.depthPos[tr.Depth(i)]++
	}
	next := 0
	for d := len(s.depthPos) - 1; d >= 0; d-- {
		next, s.depthPos[d] = next+s.depthPos[d], next
	}
	for i := 0; i < n; i++ {
		d := tr.Depth(i)
		s.order[s.depthPos[d]] = i
		s.depthPos[d]++
	}
}

// Normals returns the normal-state statistics of every span of the
// session's trace, indexed like its Spans — the lookups the session made
// at open. The slice is read-only and valid until Close.
func (s *CounterfactualSession) Normals() []NormalStats { return s.normal }

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
			s.x.Set(i, 0, features.ScaleDuration(int64(s.normalDur(i))))
			s.x.Set(i, 1, 0)
			s.xStar.Set(i, 0, features.ScaleDuration(int64(s.normalExcl(i))))
			s.xStar.Set(i, 1, 0)
		} else {
			s.x.Set(i, 0, s.pristine[4*i])
			s.x.Set(i, 1, s.pristine[4*i+1])
			s.xStar.Set(i, 0, s.pristine[4*i+2])
			s.xStar.Set(i, 1, s.pristine[4*i+3])
		}
	}
	if s.inc == nil {
		// No row-exact kernel for this aggregator: full forward per call.
		if s.ar == nil {
			s.ar = tensor.NewArena()
		}
		h := s.m.agg.Forward(s.enc.Graph(), s.ar.View(s.xStar), s.ar.View(s.x))
		res := s.recompute(h)
		s.ar.Reset()
		return res
	}
	if !s.primed {
		// First query: one batched tape-free pass fills the h and group-sum
		// caches and a full bottom-up pass fills dur/errp for every node.
		s.hT = s.inc.Prime(s.xStar, s.x)
		s.primed = true
		return s.recompute(s.hT)
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
	return s.recomputeDirty()
}

// normalDur and normalExcl are span i's restoration targets in µs.
func (s *CounterfactualSession) normalDur(i int) float64 {
	return math.Max(s.normal[i].MedianDuration, 1)
}

func (s *CounterfactualSession) normalExcl(i int) float64 {
	return math.Max(s.normal[i].MedianExclusiveDuration, 1)
}

// RowsUpdated reports how many feature-row toggles the session has applied
// across all Counterfactual calls — the delta work actually done.
func (s *CounterfactualSession) RowsUpdated() int64 { return s.rowsUpdated }

// Close returns the session, with every buffer it owns, to the pool for
// the next session to reuse, and drops its reference to the trace. The
// session must not be used afterwards; a second Close is a no-op.
func (s *CounterfactualSession) Close() {
	if s.tr == nil {
		return
	}
	s.m, s.tr, s.enc.Trace = nil, nil, nil
	sessionPool.Put(s)
}
