package eval

import (
	"sort"
	"time"

	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Evaluate runs an algorithm over the dataset's queries after calibrating
// it on the normal corpus, returning the confusion and wall-clock spent in
// localisation (the per-query inference cost of Figure 5b). Sleuth's
// *rca.Localizer is driven through its parallel batch path; the confusion
// is always accumulated in query order, so the scores are identical either
// way.
func Evaluate(algo rca.Algorithm, ds *Dataset) (Confusion, time.Duration, error) {
	if err := algo.Prepare(ds.Normal); err != nil {
		return Confusion{}, 0, err
	}
	var c Confusion
	start := time.Now()
	if loc, ok := algo.(*rca.Localizer); ok {
		slos := make([]float64, len(ds.Queries))
		for i, q := range ds.Queries {
			slos[i] = q.SLOMicros
		}
		for i, res := range loc.LocalizeDetailedBatch(queryTraces(ds), slos) {
			c.Add(res.Services, ds.Queries[i].Truth)
		}
	} else {
		for _, q := range ds.Queries {
			pred := algo.Localize(q.Trace, q.SLOMicros)
			c.Add(pred, q.Truth)
		}
	}
	return c, time.Since(start), nil
}

// ClusterOutcome reports a clustered evaluation.
type ClusterOutcome struct {
	Confusion Confusion
	// Inferences is the number of RCA queries actually executed (cluster
	// medoids + noise traces); the clustering speedup of Fig. 5b is
	// len(Queries)/Inferences.
	Inferences int
	// Time is the wall-clock spent on distances, HDBSCAN and localisation.
	Time time.Duration
}

// ClusteredEvaluate runs the paper's full inference pipeline (§3.1) — the
// one Analyze runs: each incident window's anomalous traces go through
// rca.LocalizeClustered, and every trace is scored against its group's
// verdict. Clustering operates within one incident window (plan) at a
// time, the granularity production batches arrive at. distances == nil
// means Eq. 1 over the window's traces; otherwise it must cover all
// queries (e.g. DeepTraLog embedding distances) and is sliced per window.
func ClusteredEvaluate(loc *rca.Localizer, ds *Dataset, opts cluster.Options, distances *cluster.Matrix) (ClusterOutcome, error) {
	var out ClusterOutcome
	if err := loc.Prepare(ds.Normal); err != nil {
		return out, err
	}
	// Group queries by incident.
	windows := map[int][]int{}
	for i, q := range ds.Queries {
		windows[q.PlanID] = append(windows[q.PlanID], i)
	}
	planIDs := make([]int, 0, len(windows))
	for id := range windows {
		planIDs = append(planIDs, id)
	}
	sort.Ints(planIDs)

	start := time.Now()
	for _, planID := range planIDs {
		idx := windows[planID]
		traces := make([]*trace.Trace, len(idx))
		slos := make([]float64, len(idx))
		for a, qi := range idx {
			traces[a], slos[a] = ds.Queries[qi].Trace, ds.Queries[qi].SLOMicros
		}
		var m *cluster.Matrix
		if distances != nil {
			m = distances.Submatrix(idx)
		} else {
			m = cluster.Pairwise(cluster.TraceSets(traces, cluster.DefaultMaxAncestors))
		}
		groups := loc.LocalizeClustered(traces, slos, m, opts)
		out.Inferences += len(groups)
		for _, g := range groups {
			for _, a := range g.Members {
				out.Confusion.Add(g.Result.Services, ds.Queries[idx[a]].Truth)
			}
		}
	}
	out.Time = time.Since(start)
	return out, nil
}
