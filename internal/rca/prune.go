package rca

import (
	"math"

	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Pruning rule names, as they appear in PruneDecision.Rule and in
// `sleuthctl rca -explain` output. Keep rules fire in precedence order
// (top, error, duration); cut reasons describe which evidence was missing.
const (
	// RuleTop keeps the top-ranked candidate unconditionally — the
	// counterfactual loop's fallback answer must always be available, and
	// keeping it makes pruning a strict subset of the unpruned loop's
	// early iterations.
	RuleTop = "top"
	// RuleError keeps candidates with at least one affiliated span
	// carrying an exclusive error; errors explain SLO violations
	// regardless of latency reachability.
	RuleError = "error"
	// RuleDuration keeps candidates whose worst sync-reachable span has a
	// robust exclusive-duration z-score at or above Options.PruneZ.
	RuleDuration = "duration"
	// RuleLowZ cuts candidates that are latency-reachable but whose worst
	// z-score falls below the threshold.
	RuleLowZ = "low-z"
	// RuleUnreachable cuts error-free candidates none of whose spans sit
	// on a synchronous path from the root — fire-and-forget work cannot
	// explain a latency SLO violation.
	RuleUnreachable = "unreachable"
)

// PruneDecision records why one candidate survived (or not) the pruning
// stage — the Groot-style interpretable artifact surfaced through
// Result.Pruning and `sleuthctl rca -explain`.
type PruneDecision struct {
	// Service is the candidate service.
	Service string
	// Score is the candidate's ranking score (errors + duration decades).
	Score float64
	// Kept reports whether the candidate entered the counterfactual loop.
	Kept bool
	// Rule is the deciding rule: for kept candidates the first keep rule
	// that fired ("top", "error", "duration"); for cut candidates the cut
	// reason ("low-z", "unreachable").
	Rule string
	// Statistic is the evidence the rule evaluated: the exclusive-error
	// span count for "error", the max robust z-score for the duration
	// rules.
	Statistic float64
	// Threshold is the value Statistic was compared against.
	Threshold float64
}

// syncReachable marks spans on an all-synchronous path from a root: a
// span's latency can surface at the root only if every hop on its
// ancestor chain waits for it. Producer/consumer hops break the chain.
func syncReachable(tr *trace.Trace) []bool {
	reach := make([]bool, tr.Len())
	stack := make([]int, 0, tr.Len())
	for _, r := range tr.Roots() {
		reach[r] = true
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range tr.Children(i) {
			if tr.Spans[c].Kind.Synchronous() {
				reach[c] = true
				stack = append(stack, c)
			}
		}
	}
	return reach
}

// spanZ is the robust z-score of an exclusive duration of excl µs against
// its operation's normal state. The scale floors at 5% of the median (and
// 1 µs) so near-constant operations don't produce unbounded scores.
func spanZ(excl int64, norm core.NormalStats) float64 {
	med := norm.MedianExclusiveDuration
	sigma := math.Max(norm.SigmaExclusiveDuration, math.Max(0.05*med, 1))
	return (float64(excl) - med) / sigma
}

// prune applies the cheap one-pass statistics ahead of the counterfactual
// loop (TraceDiag-style): a candidate survives if it is top-ranked, shows
// an exclusive error on any affiliated span, or has a sync-reachable span
// whose exclusive duration sits PruneZ robust sigmas above its normal
// median. Everything the GNN would be asked about is kept; the candidates
// no cheap statistic can implicate are cut before any forward pass runs.
// Order is preserved. The returned decisions cover every input candidate.
// normals holds the per-span normal states, indexed like tr.Spans.
func (l *Localizer) prune(tr *trace.Trace, normals []core.NormalStats, cands []candidate) ([]candidate, []PruneDecision) {
	reach := syncReachable(tr)
	kept := make([]candidate, 0, len(cands))
	decisions := make([]PruneDecision, len(cands))
	for ci, c := range cands {
		errSpans := 0
		maxZ := math.Inf(-1)
		reachable := false
		for _, si := range c.spans {
			if tr.ExclusiveError(si) {
				errSpans++
			}
			if reach[si] {
				reachable = true
				if z := spanZ(tr.ExclusiveDuration(si), normals[si]); z > maxZ {
					maxZ = z
				}
			}
		}
		d := PruneDecision{Service: c.service, Score: c.score, Threshold: l.Opts.PruneZ}
		switch {
		case ci == 0:
			d.Kept, d.Rule, d.Statistic = true, RuleTop, c.score
			d.Threshold = 0
		case errSpans > 0:
			d.Kept, d.Rule, d.Statistic = true, RuleError, float64(errSpans)
			d.Threshold = 1
		case reachable && maxZ >= l.Opts.PruneZ:
			d.Kept, d.Rule, d.Statistic = true, RuleDuration, maxZ
		case !reachable:
			d.Rule = RuleUnreachable
		default:
			d.Rule, d.Statistic = RuleLowZ, maxZ
		}
		decisions[ci] = d
		if d.Kept {
			kept = append(kept, c)
		}
	}
	return kept, decisions
}
