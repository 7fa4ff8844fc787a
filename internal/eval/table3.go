package eval

import (
	"fmt"

	"github.com/sleuth-rca/sleuth/internal/baselines"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// Table3Cell is one (algorithm, dataset) score.
type Table3Cell struct {
	F1  float64
	ACC float64
}

// Table3Result holds the full accuracy comparison of Table 3.
type Table3Result struct {
	Datasets   []string
	Algorithms []string
	// Cells[algorithm][dataset].
	Cells map[string]map[string]Table3Cell
}

// Table3 reproduces the paper's headline comparison: F1 and ACC of every
// RCA algorithm — plus Sleuth under the two clustering metrics — across
// the benchmark applications.
func Table3(effort Effort) (*Table3Result, error) {
	res := &Table3Result{
		Algorithms: []string{
			"Max", "Threshold", "TraceAnomaly", "RealtimeRCA", "Sage",
			"Sleuth-GCN", "Sleuth-GIN+DeepTraLog", "Sleuth-GIN+cluster", "Sleuth-GIN",
		},
		Cells: map[string]map[string]Table3Cell{},
	}
	for _, a := range res.Algorithms {
		res.Cells[a] = map[string]Table3Cell{}
	}
	for _, bm := range BenchmarkApps(effort) {
		res.Datasets = append(res.Datasets, bm.Name)
		ds, err := BuildDataset(bm.App, effort.datasetOptions(effort.Seed+uint64(len(bm.Name))))
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", bm.Name, err)
		}

		// Rule/statistical baselines.
		sage := baselines.NewSage(effort.Seed)
		sage.Epochs = 10 + effort.TrainEpochs*2
		ta := baselines.NewTraceAnomaly(effort.Seed)
		ta.Epochs = 10
		for name, algo := range map[string]rca.Algorithm{
			"Max":          baselines.MaxDuration{},
			"Threshold":    baselines.NewThreshold(99),
			"TraceAnomaly": ta,
			"RealtimeRCA":  baselines.NewRealtime(),
			"Sage":         sage,
		} {
			c, _, err := Evaluate(algo, ds)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", name, bm.Name, err)
			}
			res.Cells[name][bm.Name] = Table3Cell{F1: c.F1(), ACC: c.ACC()}
		}

		// Sleuth variants.
		gin, err := TrainSleuth(ds, core.VariantGIN, effort)
		if err != nil {
			return nil, err
		}
		gcn, err := TrainSleuth(ds, core.VariantGCN, effort)
		if err != nil {
			return nil, err
		}
		cGIN, _, err := Evaluate(sleuthAlgorithm(gin), ds)
		if err != nil {
			return nil, err
		}
		res.Cells["Sleuth-GIN"][bm.Name] = Table3Cell{F1: cGIN.F1(), ACC: cGIN.ACC()}
		cGCN, _, err := Evaluate(sleuthAlgorithm(gcn), ds)
		if err != nil {
			return nil, err
		}
		res.Cells["Sleuth-GCN"][bm.Name] = Table3Cell{F1: cGCN.F1(), ACC: cGCN.ACC()}

		// Sleuth with Eq. 1 clustering: the pipeline Analyze runs.
		outJac, err := ClusteredEvaluate(sleuthAlgorithm(gin), ds, cluster.DefaultOptions(), nil)
		if err != nil {
			return nil, err
		}
		res.Cells["Sleuth-GIN+cluster"][bm.Name] = Table3Cell{F1: outJac.Confusion.F1(), ACC: outJac.Confusion.ACC()}

		// Sleuth with DeepTraLog embedding distances.
		dtl := baselines.NewDeepTraLog(effort.Seed)
		dtl.Epochs = 12
		trainCap := len(ds.Normal)
		if trainCap > 60 {
			trainCap = 60
		}
		dtl.Train(ds.Normal[:trainCap])
		queriesTraces := queryTraces(ds)
		dists := dtl.Distances(queriesTraces)
		dtlOpts := cluster.DefaultOptions()
		dtlOpts.SelectionEpsilon = 0 // ε is unit-scaled for Eq. 1 only
		outDTL, err := ClusteredEvaluate(sleuthAlgorithm(gin), ds, dtlOpts, dists)
		if err != nil {
			return nil, err
		}
		res.Cells["Sleuth-GIN+DeepTraLog"][bm.Name] = Table3Cell{F1: outDTL.Confusion.F1(), ACC: outDTL.Confusion.ACC()}
	}
	return res, nil
}

func queryTraces(ds *Dataset) []*trace.Trace {
	out := make([]*trace.Trace, len(ds.Queries))
	for i, q := range ds.Queries {
		out[i] = q.Trace
	}
	return out
}

// RenderTable3 formats the result like the paper's Table 3.
func RenderTable3(r *Table3Result) string {
	header := []string{"algorithm"}
	for _, d := range r.Datasets {
		header = append(header, d+" F1", d+" ACC")
	}
	t := Table{Header: header}
	for _, a := range r.Algorithms {
		row := []string{a}
		for _, d := range r.Datasets {
			c := r.Cells[a][d]
			row = append(row, fmt.Sprintf("%.2f", c.F1), fmt.Sprintf("%.2f", c.ACC))
		}
		t.AddRow(row...)
	}
	return t.String()
}
