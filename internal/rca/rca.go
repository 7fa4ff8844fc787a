// Package rca implements root-cause localisation over traces.
//
// It defines the Algorithm interface shared by Sleuth and every baseline
// comparator, and the Sleuth localiser itself (§3.5): spans are aggregated
// by service with client spans affiliating to their callee services,
// candidates are ranked by exclusive errors plus excess exclusive duration
// against the learned normal state, and root causes are confirmed by
// iteratively restoring candidates and asking the GNN counterfactual
// whether the trace would have been normal.
package rca

import (
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Algorithm is a trace RCA method: given an anomalous trace and the SLO it
// violated, predict the set of root-cause services. Prepare receives
// normal-operation traces for calibration or training.
type Algorithm interface {
	Name() string
	Prepare(train []*trace.Trace) error
	Localize(tr *trace.Trace, sloMicros float64) []string
}

// Options tunes the Sleuth localiser.
type Options struct {
	// MaxCandidates bounds how many services are restored before giving
	// up and reporting the top-ranked candidate alone.
	MaxCandidates int
}

// DefaultOptions returns the shipped localiser configuration.
func DefaultOptions() Options {
	return Options{MaxCandidates: 5}
}

const (
	// errThreshold is the predicted error probability above which the
	// counterfactual trace still counts as failing.
	errThreshold = 0.5
	// errScoreWeight weighs one exclusive error against a decade of
	// excess exclusive duration in candidate ranking.
	errScoreWeight = 3
)

// Localizer is Sleuth's counterfactual root-cause analyser.
type Localizer struct {
	Model *core.Model
	Opts  Options
}

// NewLocalizer wraps a trained model. A MaxCandidates at zero (or below)
// takes its DefaultOptions value.
func NewLocalizer(m *core.Model, opts Options) *Localizer {
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = DefaultOptions().MaxCandidates
	}
	return &Localizer{Model: m, Opts: opts}
}

// Name implements Algorithm.
func (l *Localizer) Name() string { return "Sleuth" }

// Prepare implements Algorithm: the model's normal-state statistics are
// refreshed from the provided traces (the weights are trained separately,
// or transferred pre-trained).
func (l *Localizer) Prepare(train []*trace.Trace) error {
	l.Model.SetNormals(train)
	return nil
}

// candidate is a service with its anomaly evidence.
type candidate struct {
	service string
	score   float64
	// spans lists the span indexes restored when this candidate is
	// restored (its affiliated spans).
	spans []int
}

// Candidates aggregates spans by service (§3.5): a client span affiliates
// with its own service and with the services of its children, so that
// network failures on the link into a child are attributable to the child.
// Candidates are ranked by exclusive errors plus excess exclusive duration
// relative to the model's normal state.
func (l *Localizer) Candidates(tr *trace.Trace) []candidate {
	return l.candidates(tr, l.Model.SpanNormals(tr, nil))
}

// candidates is Candidates over the per-span normal states normals
// (indexed like tr.Spans), which a localisation takes from its session.
func (l *Localizer) candidates(tr *trace.Trace, normals []core.NormalStats) []candidate {
	byService := make(map[string]*candidate)
	get := func(name string) *candidate {
		c, ok := byService[name]
		if !ok {
			c = &candidate{service: name}
			byService[name] = c
		}
		return c
	}
	affiliate := func(svc string, spanIdx int) {
		c := get(svc)
		c.spans = append(c.spans, spanIdx)
	}
	for i, sp := range tr.Spans {
		affiliate(sp.Service, i)
		if sp.Kind == trace.KindClient {
			for _, child := range tr.Children(i) {
				if cs := tr.Spans[child].Service; cs != sp.Service {
					affiliate(cs, i)
				}
			}
		}
	}
	// Score: exclusive errors weigh errScoreWeight each; excess exclusive
	// duration counts in decades above the operation's normal median.
	//
	// Evidence on a client span is attributed to the callee services, not
	// the caller: a client span's exclusive duration is transport time and
	// its exclusive error (an error its server child does not carry) is a
	// link or callee-side failure — the network-failure case §3.5 singles
	// out. The caller's own problems surface on its server span instead.
	score := func(i int) float64 {
		s := 0.0
		if tr.ExclusiveError(i) {
			s += errScoreWeight
		}
		if norm := normals[i]; norm.MedianExclusiveDuration > 0 {
			if ratio := float64(tr.ExclusiveDuration(i)) / norm.MedianExclusiveDuration; ratio > 1 {
				s += math.Log10(ratio)
			}
		}
		return s
	}
	for i, sp := range tr.Spans {
		s := score(i)
		if s == 0 {
			continue
		}
		if sp.Kind == trace.KindClient {
			credited := false
			for _, child := range tr.Children(i) {
				if cs := tr.Spans[child].Service; cs != sp.Service {
					get(cs).score += s
					credited = true
				}
			}
			if !credited {
				get(sp.Service).score += s
			}
			continue
		}
		get(sp.Service).score += s
	}
	out := make([]candidate, 0, len(byService))
	for _, c := range byService {
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].score != out[b].score {
			return out[a].score > out[b].score
		}
		return out[a].service < out[b].service
	})
	return out
}

// Result is a localisation outcome.
type Result struct {
	// Services are the predicted root-cause services (restoration set
	// that normalised the counterfactual trace).
	Services []string
	// Pods and Nodes are the instances hosting those services in this
	// trace (§3.5's instance mapping).
	Pods  []string
	Nodes []string
	// Normalized reports whether the counterfactual reached a normal
	// state within MaxCandidates restorations.
	Normalized bool
	// PredictedDuration is the counterfactual duration with the final
	// restoration set applied (µs).
	PredictedDuration float64
	// Deprecated: always zero; removed with the benchmark's rca.pruned_per_query row (ROADMAP item 1).
	PrunedCandidates int
	// Deprecated: always zero; removed with the benchmark's rca.pruned_per_query row (ROADMAP item 1).
	Pruning []PruneDecision
}

// Deprecated: always zero; removed with the benchmark's rca.pruned_per_query row (ROADMAP item 1).
type PruneDecision struct{}

// Localize implements Algorithm.
func (l *Localizer) Localize(tr *trace.Trace, sloMicros float64) []string {
	return l.LocalizeDetailed(tr, sloMicros).Services
}

// LocalizeDetailedBatch runs LocalizeDetailed(traces[i], sloMicros[i]) for
// every i on par.For and returns the results in input order. Localisation
// only reads the model (forward passes and normal-state lookups), so the
// queries are independent and each result is what a lone call returns.
// par.For's shared counter suits them: a query that normalises at its first
// question costs a tenth of one that exhausts the loop.
func (l *Localizer) LocalizeDetailedBatch(traces []*trace.Trace, sloMicros []float64) []Result {
	if len(traces) != len(sloMicros) {
		panic("rca: LocalizeDetailedBatch length mismatch")
	}
	batchTimer := obs.H("rca.localize_batch_us").Start()
	defer batchTimer.Stop()
	out := make([]Result, len(traces))
	par.For(len(traces), func(_, i int) {
		out[i] = l.LocalizeDetailed(traces[i], sloMicros[i])
	})
	return out
}

// Group is one verdict of LocalizeClustered: the traces (indexes into its
// batch, ascending) that share one localisation.
type Group struct {
	// Label is the HDBSCAN cluster label, -1 for a noise trace.
	Label   int
	Members []int
	// Result localises the cluster's medoid, or the noise trace itself.
	Result Result
}

// LocalizeClustered is the §3.3 pipeline over one batch of anomalous
// traces: HDBSCAN over their distance matrix m (m.N == len(traces)),
// then one LocalizeDetailedBatch over every noise trace and every
// cluster's medoid, each medoid's result standing for its whole cluster.
// sloMicros[i] is traces[i]'s objective. The groups come back noise first,
// one per trace in batch order, then one per cluster by ascending label;
// each Result is what a lone LocalizeDetailed of its query returns, so the
// outcome is identical for any GOMAXPROCS.
func (l *Localizer) LocalizeClustered(traces []*trace.Trace, sloMicros []float64, m *cluster.Matrix, opts cluster.Options) []Group {
	if len(traces) != len(sloMicros) || m.N != len(traces) {
		panic("rca: LocalizeClustered length mismatch")
	}
	labels := cluster.HDBSCAN(m, opts)
	medoids := cluster.Medoids(m, labels)
	var groups []Group
	for i, lab := range labels {
		if lab < 0 {
			groups = append(groups, Group{Label: -1, Members: []int{i}})
		}
	}
	// HDBSCAN labels its clusters 0 … len(medoids)-1.
	noise := len(groups)
	for lab := range len(medoids) {
		groups = append(groups, Group{Label: lab})
	}
	for i, lab := range labels {
		if lab >= 0 {
			g := &groups[noise+lab]
			g.Members = append(g.Members, i)
		}
	}
	queries := make([]*trace.Trace, len(groups))
	slos := make([]float64, len(groups))
	for q, g := range groups {
		i := g.Members[0]
		if g.Label >= 0 {
			i = medoids[g.Label]
		}
		queries[q], slos[q] = traces[i], sloMicros[i]
	}
	// The queries are independent and differ widely in cost, so they fan
	// out; results come back in query order.
	for q, res := range l.LocalizeDetailedBatch(queries, slos) {
		groups[q].Result = res
	}
	return groups
}

// LocalizeDetailed runs the full §3.5 loop and returns instance mappings,
// timing the query into the rca.localize_us histogram.
func (l *Localizer) LocalizeDetailed(tr *trace.Trace, sloMicros float64) Result {
	defer obs.H("rca.localize_us").Start().Stop()
	obs.C("rca.localizations").Inc()
	cfCtr := obs.C("rca.counterfactuals")
	if tr.Len() == 0 {
		// No spans, no candidates — and no session: an encoding needs a row.
		obs.S("rca.localize.candidates").Append(0)
		return Result{}
	}
	// One counterfactual session per localisation: encoding, graph,
	// normals and depth order are computed once; ranking reads the
	// session's normals, and the loop below touches only the delta rows
	// each iteration adds.
	sess := l.Model.NewCounterfactualSession(tr)
	defer func() {
		obs.C("rca.counterfactual_rows_updated").Add(sess.RowsUpdated())
		sess.Close()
	}()
	cands := l.candidates(tr, sess.Normals())
	obs.S("rca.localize.candidates").Append(float64(len(cands)))
	max := l.Opts.MaxCandidates
	if max > len(cands) {
		max = len(cands)
	}
	spanBudget := 0
	for k := 0; k < max; k++ {
		spanBudget += len(cands[k].spans)
	}
	restored := make(map[int]bool, spanBudget)
	var used []string
	var top core.CounterfactualResult // the answer for cands[0] alone
	for k := 0; k < max; k++ {
		for _, si := range cands[k].spans {
			restored[si] = true
		}
		used = append(used, cands[k].service)
		cf := sess.Counterfactual(restored)
		cfCtr.Inc()
		if k == 0 {
			top = cf
		}
		if cf.RootDurationMicros <= sloMicros && cf.RootErrorProb < errThreshold {
			obs.C("rca.normalized").Inc()
			return l.result(tr, used, true, cf.RootDurationMicros)
		}
	}
	if max == 0 {
		top = sess.Counterfactual(spanSet(cands[0].spans))
		cfCtr.Inc()
	}
	// Never normalised: report only the top candidate — the remaining
	// excess is not explained by restorations, so piling on candidates
	// would only cost precision. Its restoration set is the first
	// question's, and an answer depends only on the set, so that answer
	// stands without asking again.
	return l.result(tr, []string{cands[0].service}, false, top.RootDurationMicros)
}

func spanSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// result maps services back to pods and nodes via the trace's spans. The
// services slice is not modified: the sorted Services field is a copy, so
// callers' slices (the loop's `used` accumulation order in particular)
// stay intact.
func (l *Localizer) result(tr *trace.Trace, services []string, normalized bool, dur float64) Result {
	svcSet := make(map[string]bool, len(services))
	for _, s := range services {
		svcSet[s] = true
	}
	podSet := map[string]bool{}
	nodeSet := map[string]bool{}
	for _, sp := range tr.Spans {
		if svcSet[sp.Service] {
			if sp.Pod != "" {
				podSet[sp.Pod] = true
			}
			if sp.Node != "" {
				nodeSet[sp.Node] = true
			}
		}
	}
	sorted := append([]string(nil), services...)
	sort.Strings(sorted)
	return Result{
		Services:          sorted,
		Pods:              sortedKeys(podSet),
		Nodes:             sortedKeys(nodeSet),
		Normalized:        normalized,
		PredictedDuration: dur,
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
