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
// localisation (the per-query inference cost of Figure 5b). Algorithms
// implementing rca.BatchLocalizer (Sleuth) are driven through the parallel
// batch path; the confusion is always accumulated in query order, so the
// scores are identical either way.
func Evaluate(algo rca.Algorithm, ds *Dataset) (Confusion, time.Duration, error) {
	if err := algo.Prepare(ds.Normal); err != nil {
		return Confusion{}, 0, err
	}
	var c Confusion
	start := time.Now()
	if bl, ok := algo.(rca.BatchLocalizer); ok {
		slos := make([]float64, len(ds.Queries))
		for i, q := range ds.Queries {
			slos[i] = q.SLOMicros
		}
		preds := bl.LocalizeBatch(queryTraces(ds), slos, 0)
		for i, q := range ds.Queries {
			c.Add(preds[i], q.Truth)
		}
	} else {
		for _, q := range ds.Queries {
			pred := algo.Localize(q.Trace, q.SLOMicros)
			c.Add(pred, q.Truth)
		}
	}
	return c, time.Since(start), nil
}

// ClusterMetric selects which trace distance drives clustering.
type ClusterMetric int

// Available clustering metrics for ClusteredEvaluate.
const (
	// MetricJaccard is Sleuth's weighted-span-set distance (Eq. 1).
	MetricJaccard ClusterMetric = iota
	// MetricCustom uses a caller-provided distance matrix over all
	// queries (e.g. the DeepTraLog embedding distances).
	MetricCustom
)

// ClusterOutcome reports a clustered evaluation.
type ClusterOutcome struct {
	Confusion Confusion
	// Inferences is the number of RCA queries actually executed (cluster
	// medoids + noise points); the clustering speedup of Fig. 5b is
	// len(Queries)/Inferences.
	Inferences int
	Clusters   int
	Noise      int
	// LocalizeTime is the wall-clock spent in RCA inference.
	LocalizeTime time.Duration
	// ClusterTime is the wall-clock spent computing distances + HDBSCAN.
	ClusterTime time.Duration
}

// ClusteredEvaluate runs the paper's full inference pipeline (§3.1):
// each incident's flood of anomalous traces is clustered, the geometric-
// median representative of each cluster is analysed, and its root causes
// generalise to the whole cluster. Noise traces are analysed individually.
// Clustering operates within one incident window (plan) at a time, the
// granularity production batches arrive at. distances may be nil for
// MetricJaccard; for MetricCustom it must cover all queries and is sliced
// per incident.
func ClusteredEvaluate(algo rca.Algorithm, ds *Dataset, opts cluster.Options, metric ClusterMetric, distances *cluster.Matrix) (ClusterOutcome, error) {
	var out ClusterOutcome
	if err := algo.Prepare(ds.Normal); err != nil {
		return out, err
	}
	// Group queries by incident.
	groups := map[int][]int{}
	for i, q := range ds.Queries {
		groups[q.PlanID] = append(groups[q.PlanID], i)
	}
	planIDs := make([]int, 0, len(groups))
	for id := range groups {
		planIDs = append(planIDs, id)
	}
	sort.Ints(planIDs)

	for _, planID := range planIDs {
		idx := groups[planID]
		clusterStart := time.Now()
		var m *cluster.Matrix
		if metric == MetricCustom && distances != nil {
			m = distances.Submatrix(idx)
		} else {
			traces := make([]*trace.Trace, len(idx))
			for a, qi := range idx {
				traces[a] = ds.Queries[qi].Trace
			}
			m = cluster.Pairwise(cluster.TraceSets(traces, cluster.DefaultMaxAncestors))
		}
		effOpts := scaleClusterOptions(opts, len(idx))
		// Within one incident a single failure mode is the common case;
		// the dendrogram root must be selectable.
		effOpts.AllowSingleCluster = true
		labels := cluster.HDBSCAN(m, effOpts)
		medoids := cluster.Medoids(m, labels)
		out.ClusterTime += time.Since(clusterStart)
		out.Clusters += len(medoids)

		locStart := time.Now()
		predByCluster := map[int][]string{}
		for label, local := range medoids {
			q := ds.Queries[idx[local]]
			predByCluster[label] = algo.Localize(q.Trace, q.SLOMicros)
			out.Inferences++
		}
		for a, qi := range idx {
			q := ds.Queries[qi]
			var pred []string
			if labels[a] >= 0 {
				pred = predByCluster[labels[a]]
			} else {
				pred = algo.Localize(q.Trace, q.SLOMicros)
				out.Inferences++
				out.Noise++
			}
			out.Confusion.Add(pred, q.Truth)
		}
		out.LocalizeTime += time.Since(locStart)
	}
	return out, nil
}

// scaleClusterOptions adapts HDBSCAN hyper-parameters to small incident
// batches (the paper adjusts them "according to the number and variation
// of the traces", §3.3.2).
func scaleClusterOptions(opts cluster.Options, n int) cluster.Options {
	if opts.MinClusterSize > n/2 {
		opts.MinClusterSize = n / 3
		if opts.MinClusterSize < 2 {
			opts.MinClusterSize = 2
		}
	}
	if opts.MinSamples > opts.MinClusterSize {
		opts.MinSamples = opts.MinClusterSize - 1
		if opts.MinSamples < 1 {
			opts.MinSamples = 1
		}
	}
	return opts
}
