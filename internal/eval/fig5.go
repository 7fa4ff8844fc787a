package eval

import (
	"fmt"
	"time"

	"github.com/sleuth-rca/sleuth/internal/baselines"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/synth"
)

// Fig5Row is one application-scale point of Figure 5: training time,
// inference time per 1000-trace batch (with and without clustering for
// Sleuth-GIN), and model sizes.
type Fig5Row struct {
	RPCs int

	TrainGIN  time.Duration
	TrainGCN  time.Duration
	TrainSage time.Duration

	// Per-1000-trace inference costs, extrapolated from the query batch.
	InferGIN          time.Duration
	InferGCN          time.Duration
	InferSage         time.Duration
	InferGINClustered time.Duration

	ParamsGIN  int
	ParamsSage int
}

// Fig5 measures training and inference cost as the application scales
// (§6.3). The paper's shape: Sleuth-GIN/GCN scale sublinearly with app
// size; Sage scales linearly because its ensemble grows; clustering cuts
// inference by the cluster-compression factor (here the shipped policy,
// which seldom clusters a ≈ 5-trace incident window); GIN beats GCN by its
// simpler architecture; Sleuth's parameter count is constant while Sage's
// grows.
func Fig5(effort Effort) ([]Fig5Row, error) {
	sizes := []int{16, 64}
	if effort.MaxAppRPCs >= 256 {
		sizes = append(sizes, 256)
	}
	if effort.MaxAppRPCs >= 1024 {
		sizes = append(sizes, 1024)
	}
	var rows []Fig5Row
	for _, n := range sizes {
		app := synth.Synthetic(n, effort.Seed)
		ds, err := BuildDataset(app, effort.datasetOptions(effort.Seed+uint64(n)))
		if err != nil {
			return nil, err
		}
		row := Fig5Row{RPCs: n}

		start := time.Now()
		gin, err := TrainSleuth(ds, core.VariantGIN, effort)
		if err != nil {
			return nil, err
		}
		row.TrainGIN = time.Since(start)
		row.ParamsGIN = gin.NumParams()

		start = time.Now()
		gcn, err := TrainSleuth(ds, core.VariantGCN, effort)
		if err != nil {
			return nil, err
		}
		row.TrainGCN = time.Since(start)

		sage := baselines.NewSage(effort.Seed)
		sage.Epochs = 10 + effort.TrainEpochs*2
		start = time.Now()
		if err := sage.Prepare(ds.Train); err != nil {
			return nil, err
		}
		row.TrainSage = time.Since(start)
		row.ParamsSage = sage.NumParams()

		// Inference per 1000-trace batch (extrapolated from the queries).
		scale := func(d time.Duration) time.Duration {
			if len(ds.Queries) == 0 {
				return 0
			}
			return time.Duration(int64(d) * 1000 / int64(len(ds.Queries)))
		}
		_, tGIN, err := Evaluate(sleuthAlgorithm(gin), ds)
		if err != nil {
			return nil, err
		}
		row.InferGIN = scale(tGIN)
		_, tGCN, err := Evaluate(sleuthAlgorithm(gcn), ds)
		if err != nil {
			return nil, err
		}
		row.InferGCN = scale(tGCN)
		_, tSage, err := Evaluate(sage, ds)
		if err != nil {
			return nil, err
		}
		row.InferSage = scale(tSage)

		outCl, err := ClusteredEvaluate(sleuthAlgorithm(gin), ds, cluster.DefaultOptions(), nil)
		if err != nil {
			return nil, err
		}
		row.InferGINClustered = scale(outCl.Time)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig5 formats both panels of Figure 5.
func RenderFig5(rows []Fig5Row) string {
	t := Table{Header: []string{
		"RPCs", "train GIN", "train GCN", "train Sage",
		"infer/1k GIN", "infer/1k GIN+cl", "infer/1k GCN", "infer/1k Sage",
		"params GIN", "params Sage",
	}}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.RPCs),
			r.TrainGIN.Round(time.Millisecond).String(),
			r.TrainGCN.Round(time.Millisecond).String(),
			r.TrainSage.Round(time.Millisecond).String(),
			r.InferGIN.Round(time.Millisecond).String(),
			r.InferGINClustered.Round(time.Millisecond).String(),
			r.InferGCN.Round(time.Millisecond).String(),
			r.InferSage.Round(time.Millisecond).String(),
			fmt.Sprint(r.ParamsGIN), fmt.Sprint(r.ParamsSage))
	}
	return t.String()
}
