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
// answer is always one full aggregation pass plus the full bottom-up
// recompute, never the incremental kernels — which is what makes this the
// independent reference TestCounterfactualSessionEquivalence holds a
// long-lived session's incremental answers against.
func (m *Model) Counterfactual(tr *trace.Trace, restored map[int]bool) CounterfactualResult {
	s := m.NewCounterfactualSession(tr)
	defer s.Close()
	return s.Counterfactual(restored)
}

// counterfactualRecompute is the shared bottom-up ancestral pass of a
// counterfactual query (Eq. 2 / Eq. 3 over recomputed child values,
// deepest spans first) — a session's first answer, and every answer of an
// aggregator without a row-exact kernel. The scratch slices dur/errp must
// each have length tr.Len() and are overwritten.
func (m *Model) counterfactualRecompute(tr *trace.Trace, restored func(int) bool,
	normalDur, normalExcl []float64, h *tensor.Tensor, order []int, dur, errp []float64) CounterfactualResult {
	for _, i := range order {
		dur[i], errp[i] = m.cfNode(tr, restored, normalDur, normalExcl, h, dur, errp, i)
	}

	root := tr.Roots()[0]
	return CounterfactualResult{
		RootDurationMicros: dur[root],
		RootErrorProb:      errp[root],
	}
}

// counterfactualRecomputeDirty is the incremental form of the bottom-up
// pass: dur/errp hold valid values from a previous pass, dirty marks the
// nodes whose inputs may have changed (restoration toggles and parents of
// recomputed h rows). Nodes are revisited in the same deepest-first order;
// a node whose recomputed value is bit-identical to the cached one stops
// the propagation, otherwise its parent is marked. dirty is cleared as a
// side effect.
func (m *Model) counterfactualRecomputeDirty(tr *trace.Trace, restored func(int) bool,
	normalDur, normalExcl []float64, h *tensor.Tensor, order []int, dur, errp []float64,
	dirty []bool) CounterfactualResult {
	for _, i := range order {
		if !dirty[i] {
			continue
		}
		dirty[i] = false
		d, e := m.cfNode(tr, restored, normalDur, normalExcl, h, dur, errp, i)
		if d != dur[i] || e != errp[i] {
			dur[i], errp[i] = d, e
			if p := tr.Parent(i); p >= 0 {
				dirty[p] = true
			}
		}
	}

	root := tr.Roots()[0]
	return CounterfactualResult{
		RootDurationMicros: dur[root],
		RootErrorProb:      errp[root],
	}
}

// cfNode computes one node's Eq. 2 / Eq. 3 values from its children's
// already-recomputed dur/errp entries — the single source of the
// counterfactual math for the full and the dirty-cone pass.
func (m *Model) cfNode(tr *trace.Trace, restored func(int) bool,
	normalDur, normalExcl []float64, h *tensor.Tensor, dur, errp []float64, i int) (float64, float64) {
	kids := tr.Children(i)
	// Exclusive components under the intervention.
	exclDur := float64(tr.ExclusiveDuration(i))
	exclErr := 0.0
	if tr.ExclusiveError(i) {
		exclErr = 1
	}
	if restored(i) {
		exclDur = normalExcl[i]
		exclErr = 0
	}
	if len(kids) == 0 {
		if restored(i) {
			return normalDur[i], exclErr
		}
		return math.Max(float64(tr.Spans[i].Duration()), 1), exclErr
	}
	// Eq. 2 over recomputed child durations.
	total := exclDur
	maxErr := exclErr
	for _, j := range kids {
		if m.cfg.PlainSum {
			total += dur[j]
		} else {
			v := math.Pow(10, clampf(h.At(j, 1), -2, 8))
			u := v * sigmoid(h.At(j, 0))
			total += smoothClippedReLU(dur[j], u, v, smoothFrac*dur[j]+1)
		}
		// Eq. 3 child terms with recomputed values.
		propagated := errp[j] * sigmoid(h.At(j, 2))
		dScaled := features.ScaleDuration(int64(math.Max(dur[j], 1)))
		durInduced := sigmoid(h.At(j, 3)*dScaled + h.At(j, 4))
		if propagated > maxErr {
			maxErr = propagated
		}
		if durInduced > maxErr {
			maxErr = durInduced
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
