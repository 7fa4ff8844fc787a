package core

import (
	"math"

	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// CounterfactualResult is the predicted trace state under an intervention.
type CounterfactualResult struct {
	// RootDurationMicros is the predicted end-to-end duration.
	RootDurationMicros float64
	// RootErrorProb is the predicted probability the root span errors.
	RootErrorProb float64
}

// Counterfactual answers the §3.5 query: given the observed trace, what
// would the root span's duration and error status be if the spans selected
// by restored were returned to their normal state (median duration, no
// error)?
//
// Inference is ancestral over the causal DAG: h parameters are produced by
// one aggregation pass over the intervened features, then durations and
// errors are recomputed bottom-up with Eq. 2 and Eq. 3, so a restoration
// deep in the trace propagates through every ancestor rather than only one
// level.
//
// A single question is a fresh session asked once: the session's first
// answer is always the evaluator's batched pass over all n rows (Prime)
// plus the full bottom-up recompute, never the incremental kernels —
// which is what makes this the reference TestCounterfactualSessionEquivalence
// holds a long-lived session's incremental answers against. That test also
// checks the first answer itself against the tape Forward on fresh buffers.
func (m *Model) Counterfactual(tr *trace.Trace, restored map[int]bool) CounterfactualResult {
	s := m.NewCounterfactualSession(tr)
	defer s.Close()
	return s.Counterfactual(restored)
}

// recompute is the full bottom-up ancestral pass of a counterfactual query
// (Eq. 2 / Eq. 3 over recomputed child values, deepest spans first) over
// the aggregation output h — a session's first answer, and every answer of
// an aggregator without a row-exact kernel. It overwrites dur/errp and
// every span's terms.
func (s *CounterfactualSession) recompute(h *tensor.Tensor) CounterfactualResult {
	for _, i := range s.order {
		s.dur[i], s.errp[i] = s.node(i)
		s.fillTerms(h, i)
		s.childTerms(h, i)
	}
	return s.rootResult()
}

// recomputeDirty is the incremental form of the bottom-up pass: dur/errp
// and the terms hold valid values from a previous pass, except that dirty
// marks the nodes whose inputs may have changed (restoration toggles and
// parents of recomputed h rows) and stale the spans whose child terms are
// due (their h row changed). Nodes are revisited in the same deepest-first
// order, so a child's terms are fresh before its parent combines them; a
// node whose recomputed value is bit-identical to the cached one stops the
// propagation, otherwise its terms go stale and its parent is marked.
// dirty and stale are cleared as a side effect.
func (s *CounterfactualSession) recomputeDirty() CounterfactualResult {
	for _, i := range s.order {
		if s.dirty[i] {
			s.dirty[i] = false
			d, e := s.node(i)
			if d != s.dur[i] || e != s.errp[i] {
				s.dur[i], s.errp[i] = d, e
				s.stale[i] = true
				if p := s.tr.Parent(i); p >= 0 {
					s.dirty[p] = true
				}
			}
		}
		if s.stale[i] {
			s.stale[i] = false
			s.childTerms(s.hT, i)
		}
	}
	return s.rootResult()
}

func (s *CounterfactualSession) rootResult() CounterfactualResult {
	root := s.tr.Roots()[0]
	return CounterfactualResult{
		RootDurationMicros: s.dur[root],
		RootErrorProb:      s.errp[root],
	}
}

// spanTerms is what a span contributes to its parent's Eq. 2 / Eq. 3:
// the h-only inputs v = 10^clamp(h₁), u = v·σ(h₀) and σ(h₂), and the child
// terms built from them and the span's recomputed duration and error —
// its Eq. 2 summand and both Eq. 3 candidates. The candidates are kept
// apart, not as their max, so the parent compares them in the same
// sequence (and with the same NaN behaviour) as an uncached pass.
type spanTerms struct {
	v, u, sig2                  float64
	eq2, propagated, durInduced float64
}

// fillTerms computes span j's h-only inputs from its h row.
func (s *CounterfactualSession) fillTerms(h *tensor.Tensor, j int) {
	t := &s.terms[j]
	if !s.m.cfg.PlainSum {
		t.v = math.Pow(10, clampf(h.At(j, 1), -2, 8))
		t.u = t.v * sigmoid(h.At(j, 0))
	}
	t.sig2 = sigmoid(h.At(j, 2))
}

// childTerms computes span j's child terms from its h-only inputs, its h
// row and its current dur/errp. A product that feeds a sum is rounded on
// its own by a float64 conversion, as the tape's separate ops round it, so
// no architecture fuses the two into one FMA.
func (s *CounterfactualSession) childTerms(h *tensor.Tensor, j int) {
	t := &s.terms[j]
	d := s.dur[j]
	if s.m.cfg.PlainSum {
		t.eq2 = d
	} else {
		t.eq2 = smoothClippedReLU(d, t.u, t.v, float64(smoothFrac*d)+1)
	}
	t.propagated = s.errp[j] * t.sig2
	dScaled := features.ScaleDuration(int64(math.Max(d, 1)))
	t.durInduced = sigmoid(float64(h.At(j, 3)*dScaled) + h.At(j, 4))
}

// node computes one node's Eq. 2 / Eq. 3 values from its children's
// cached terms — the single source of the counterfactual combination for
// the full and the dirty-cone pass; fillTerms and childTerms hold the
// per-child math.
func (s *CounterfactualSession) node(i int) (float64, float64) {
	tr := s.tr
	kids := tr.Children(i)
	// Exclusive components under the intervention.
	exclDur := float64(tr.ExclusiveDuration(i))
	exclErr := 0.0
	if tr.ExclusiveError(i) {
		exclErr = 1
	}
	if s.restored[i] {
		exclDur = s.normalExcl(i)
		exclErr = 0
	}
	if len(kids) == 0 {
		if s.restored[i] {
			return s.normalDur(i), exclErr
		}
		return math.Max(float64(tr.Spans[i].Duration()), 1), exclErr
	}
	// Eq. 2 over recomputed child durations, Eq. 3 over the child terms
	// with recomputed values.
	total := exclDur
	maxErr := exclErr
	for _, j := range kids {
		t := &s.terms[j]
		total += t.eq2
		if t.propagated > maxErr {
			maxErr = t.propagated
		}
		if t.durInduced > maxErr {
			maxErr = t.durInduced
		}
	}
	return math.Max(total, 1), maxErr
}

// smoothClippedReLU mirrors the model's smoothed Eq. 2 clipping window:
// softplus((d-u)/s)·s - softplus((d-v)/s)·s.
func smoothClippedReLU(d, u, v, s float64) float64 {
	return (softplus((d-u)/s) - softplus((d-v)/s)) * s
}

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

func clampf(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
