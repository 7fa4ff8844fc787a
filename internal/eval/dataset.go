package eval

import (
	"fmt"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Query is one evaluation unit: an anomalous trace, its exact ground-truth
// root-cause services (from counterfactual replay), and the SLO it
// violated.
type Query struct {
	Trace     *trace.Trace
	Truth     []string
	SLOMicros float64
	// TruthPods / TruthNodes are the instance-level ground truths (§3.5
	// maps root-cause services onto the pods and nodes hosting them).
	TruthPods  []string
	TruthNodes []string
	// PlanID identifies the incident (fault plan) the query came from;
	// production clustering operates within one incident's trace flood.
	PlanID int
}

// Dataset bundles everything an experiment needs for one application.
type Dataset struct {
	App *synth.App
	Sim *sim.Simulator

	// Train is the unlabeled production-like corpus: mostly normal
	// traffic with incident traces mixed in (the paper trains
	// unsupervised on raw production data, §3.1).
	Train []*trace.Trace
	// Normal is the fault-free subset used for calibration (SLOs, normal
	// states, baseline thresholds).
	Normal []*trace.Trace
	// SLO maps a root operation key to its p95 normal duration (µs).
	SLO map[string]float64
	// GlobalSLO is the fallback for unseen root operations.
	GlobalSLO float64
	// Queries are the evaluation anomalies.
	Queries []Query
}

// DatasetOptions sizes dataset construction. The paper samples 144,000
// traces and 100 anomaly queries per application; the defaults here are
// scaled for CPU-only runs and can be raised via benchrunner flags.
type DatasetOptions struct {
	Seed         uint64
	NormalTraces int
	// AnomalousTrainTraces are unlabeled incident traces mixed into Train.
	AnomalousTrainTraces int
	// NumQueries is the number of evaluation anomalies to collect.
	NumQueries int
}

// sloPercentile calibrates the per-operation SLO.
const sloPercentile = 95

// DefaultDatasetOptions returns CPU-friendly sizes.
func DefaultDatasetOptions(seed uint64) DatasetOptions {
	return DatasetOptions{
		Seed:                 seed,
		NormalTraces:         240,
		AnomalousTrainTraces: 60,
		NumQueries:           40,
	}
}

// BuildDataset simulates traffic, calibrates SLOs and collects ground-
// truth anomaly queries for the app.
func BuildDataset(app *synth.App, opts DatasetOptions) (*Dataset, error) {
	s := sim.New(app, sim.DefaultOptions(opts.Seed))
	ds := &Dataset{App: app, Sim: s, SLO: map[string]float64{}}

	// Normal traffic.
	normRes, err := s.Run(0, opts.NormalTraces)
	if err != nil {
		return nil, err
	}
	ds.Normal = sim.Traces(normRes)
	ds.Train = append(ds.Train, ds.Normal...)

	// SLO calibration per root operation.
	byRoot := map[string][]float64{}
	var all []float64
	for _, r := range normRes {
		root := r.Trace.Spans[r.Trace.Roots()[0]]
		byRoot[root.OpKey()] = append(byRoot[root.OpKey()], float64(r.Duration))
		all = append(all, float64(r.Duration))
	}
	for k, ds2 := range byRoot {
		ds.SLO[k] = stats.Percentile(ds2, sloPercentile)
	}
	ds.GlobalSLO = stats.Percentile(all, sloPercentile)

	// Unlabeled incident traces for training (production data contains
	// anomalies; the model must see tail behaviour to reconstruct it).
	rng := xrand.New(opts.Seed)
	trainID := 1_000_000
	for len(ds.Train)-len(ds.Normal) < opts.AnomalousTrainTraces {
		plan := chaos.GeneratePlan(app, chaos.ScaledPlanParams(app), rng.Split(fmt.Sprintf("train-plan-%d", trainID)))
		res, err := s.RunWithInjector(trainID, 10, chaos.NewInjector(app, plan))
		if err != nil {
			return nil, err
		}
		ds.Train = append(ds.Train, sim.Traces(res)...)
		trainID += 10
	}
	if extra := len(ds.Train) - len(ds.Normal) - opts.AnomalousTrainTraces; extra > 0 {
		ds.Train = ds.Train[:len(ds.Train)-extra]
	}

	// Evaluation queries: fresh incident plans until the quota of
	// SLO-violating traces with non-empty ground truth is met.
	queryID := 2_000_000
	planIdx := 0
	for len(ds.Queries) < opts.NumQueries {
		planIdx++
		if planIdx > opts.NumQueries*20 {
			return nil, fmt.Errorf("eval: could not collect %d anomaly queries (got %d)", opts.NumQueries, len(ds.Queries))
		}
		plan := chaos.GeneratePlan(app, chaos.ScaledPlanParams(app), rng.Split(fmt.Sprintf("eval-plan-%d", planIdx)))
		for i := 0; i < 12 && len(ds.Queries) < opts.NumQueries; i++ {
			sample, err := s.SimulateWithTruth(queryID, plan)
			queryID++
			if err != nil {
				return nil, err
			}
			if len(sample.RootServices) == 0 {
				continue
			}
			slo := ds.SLOFor(sample.Result.Trace)
			if float64(sample.Result.Duration) <= slo && !sample.Result.Errored {
				continue
			}
			ds.Queries = append(ds.Queries, Query{
				Trace:      sample.Result.Trace,
				Truth:      sample.RootServices,
				TruthPods:  sample.RootPods,
				TruthNodes: sample.RootNodes,
				SLOMicros:  slo,
				PlanID:     planIdx,
			})
		}
	}
	return ds, nil
}

// SLOFor returns the SLO of a trace's root operation.
func (d *Dataset) SLOFor(tr *trace.Trace) float64 {
	root := tr.Spans[tr.Roots()[0]]
	if slo, ok := d.SLO[root.OpKey()]; ok {
		return slo
	}
	return d.GlobalSLO
}
