package eval

import (
	"fmt"

	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Ablation experiments for the design choices DESIGN.md calls out: the
// d_max ancestor window of the trace distance (§3.3.1), the Eq. 2 clipped
// aggregation window versus a plain child-duration sum, and the HDBSCAN
// selection epsilon.

// clusterPurity measures how well labels respect ground truth: for every
// same-cluster pair of queries, the fraction whose truth sets are equal.
// Noise points are excluded; a second return reports the noise fraction.
func clusterPurity(ds *Dataset, labels []int) (purity, noiseFrac float64) {
	key := func(q Query) string {
		return fmt.Sprintf("%v", q.Truth)
	}
	members := map[int][]int{}
	noise := 0
	for i, l := range labels {
		if l < 0 {
			noise++
			continue
		}
		members[l] = append(members[l], i)
	}
	samePairs, matchPairs := 0, 0
	for _, idx := range members {
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				samePairs++
				if key(ds.Queries[idx[a]]) == key(ds.Queries[idx[b]]) {
					matchPairs++
				}
			}
		}
	}
	if samePairs > 0 {
		purity = float64(matchPairs) / float64(samePairs)
	} else {
		purity = 1
	}
	return purity, float64(noise) / float64(len(labels))
}

// AblationDmaxRow is one d_max setting's clustering outcome.
type AblationDmaxRow struct {
	Dmax     int
	Purity   float64
	Noise    float64
	Clusters int
}

// AblationDmax sweeps the ancestor window of the span identifier over the
// pooled query set (all incidents mixed — the stress case for the
// metric). d_max = 0 collapses call paths, so spans of one operation merge
// regardless of caller and traces of different failure modes look alike;
// the purity of the resulting clusters quantifies the damage.
func AblationDmax(effort Effort) ([]AblationDmaxRow, error) {
	app := synth.Synthetic(64, effort.Seed)
	ds, err := BuildDataset(app, effort.datasetOptions(effort.Seed+3))
	if err != nil {
		return nil, err
	}
	traces := make([]*trace.Trace, len(ds.Queries))
	for i, q := range ds.Queries {
		traces[i] = q.Trace
	}
	opts := cluster.DefaultOptions()
	var rows []AblationDmaxRow
	for _, dmax := range []int{0, 1, 3, 5} {
		sets := cluster.TraceSets(traces, dmax)
		m := cluster.Pairwise(sets)
		labels := cluster.HDBSCAN(m, opts)
		purity, noise := clusterPurity(ds, labels)
		clusters := map[int]bool{}
		for _, l := range labels {
			if l >= 0 {
				clusters[l] = true
			}
		}
		rows = append(rows, AblationDmaxRow{
			Dmax: dmax, Purity: purity, Noise: noise, Clusters: len(clusters),
		})
	}
	return rows, nil
}

// RenderAblationDmax formats the d_max sweep.
func RenderAblationDmax(rows []AblationDmaxRow) string {
	t := Table{Header: []string{"d_max", "pair purity", "noise frac", "clusters"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Dmax), fmt.Sprintf("%.2f", r.Purity),
			fmt.Sprintf("%.2f", r.Noise), fmt.Sprint(r.Clusters))
	}
	return t.String()
}

// AblationWindowRow compares the Eq. 2 aggregation against a plain sum.
type AblationWindowRow struct {
	Aggregation string
	F1          float64
	ACC         float64
}

// AblationClippedReLU trains Sleuth with and without the learned clipping
// window. The plain sum over-counts parallel children, so counterfactual
// restorations over-estimate recoverable latency and localisation loses
// precision — the quantitative case for Eq. 2.
func AblationClippedReLU(effort Effort) ([]AblationWindowRow, error) {
	app := synth.Synthetic(64, effort.Seed)
	ds, err := BuildDataset(app, effort.datasetOptions(effort.Seed+5))
	if err != nil {
		return nil, err
	}
	var rows []AblationWindowRow
	for _, plain := range []bool{false, true} {
		m := core.NewModel(core.Config{EmbeddingDim: 16, Hidden: 32, PlainSum: plain, Seed: effort.Seed})
		if _, err := m.Train(ds.Train, core.TrainOptions{Epochs: effort.TrainEpochs, LearningRate: 3e-3, Seed: effort.Seed}); err != nil {
			return nil, err
		}
		m.SetNormals(ds.Normal)
		c, _, err := Evaluate(sleuthAlgorithm(m), ds)
		if err != nil {
			return nil, err
		}
		name := "clipped window (Eq. 2)"
		if plain {
			name = "plain child sum"
		}
		rows = append(rows, AblationWindowRow{Aggregation: name, F1: c.F1(), ACC: c.ACC()})
	}
	return rows, nil
}

// RenderAblationWindow formats the aggregation ablation.
func RenderAblationWindow(rows []AblationWindowRow) string {
	t := Table{Header: []string{"aggregation", "F1", "ACC"}}
	for _, r := range rows {
		t.AddRow(r.Aggregation, fmt.Sprintf("%.2f", r.F1), fmt.Sprintf("%.2f", r.ACC))
	}
	return t.String()
}

// AblationEpsilonRow is one HDBSCAN selection-epsilon setting.
type AblationEpsilonRow struct {
	Epsilon  float64
	Purity   float64
	Noise    float64
	Clusters int
}

// AblationEpsilon sweeps cluster_selection_epsilon over the pooled query
// set: small values fragment failure modes (more clusters, more medoid
// inferences), large values merge distinct root causes (purity loss) — the
// trade-off behind the paper's per-batch adjustment of the parameter.
func AblationEpsilon(effort Effort) ([]AblationEpsilonRow, error) {
	app := synth.Synthetic(64, effort.Seed)
	ds, err := BuildDataset(app, effort.datasetOptions(effort.Seed+7))
	if err != nil {
		return nil, err
	}
	traces := make([]*trace.Trace, len(ds.Queries))
	for i, q := range ds.Queries {
		traces[i] = q.Trace
	}
	sets := cluster.TraceSets(traces, cluster.DefaultMaxAncestors)
	m := cluster.Pairwise(sets)
	var rows []AblationEpsilonRow
	for _, eps := range []float64{0, 0.1, 0.3, 0.6, 0.9} {
		opts := cluster.DefaultOptions()
		opts.SelectionEpsilon = eps
		labels := cluster.HDBSCAN(m, opts)
		purity, noise := clusterPurity(ds, labels)
		clusters := map[int]bool{}
		for _, l := range labels {
			if l >= 0 {
				clusters[l] = true
			}
		}
		rows = append(rows, AblationEpsilonRow{
			Epsilon: eps, Purity: purity, Noise: noise, Clusters: len(clusters),
		})
	}
	return rows, nil
}

// RenderAblationEpsilon formats the epsilon sweep.
func RenderAblationEpsilon(rows []AblationEpsilonRow) string {
	t := Table{Header: []string{"epsilon", "pair purity", "noise frac", "clusters"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.1f", r.Epsilon), fmt.Sprintf("%.2f", r.Purity),
			fmt.Sprintf("%.2f", r.Noise), fmt.Sprint(r.Clusters))
	}
	return t.String()
}
