package eval

import (
	"fmt"
	"math"

	"github.com/sleuth-rca/sleuth/internal/baselines"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
)

// Effort scales experiment sizes: Quick runs inside the test/bench suite;
// Full approaches the paper's sample counts (benchrunner -full).
type Effort struct {
	NormalTraces   int
	AnomalousTrain int
	NumQueries     int
	TrainEpochs    int
	// MaxAppRPCs caps the largest synthetic app exercised.
	MaxAppRPCs int
	Seed       uint64
}

// QuickEffort returns the CPU-budget sizing used by `go test -bench`.
func QuickEffort(seed uint64) Effort {
	return Effort{
		NormalTraces:   150,
		AnomalousTrain: 40,
		NumQueries:     25,
		TrainEpochs:    3,
		MaxAppRPCs:     256,
		Seed:           seed,
	}
}

// FullEffort approaches the paper's scale (hours of CPU).
func FullEffort(seed uint64) Effort {
	return Effort{
		NormalTraces:   600,
		AnomalousTrain: 150,
		NumQueries:     100,
		TrainEpochs:    5,
		MaxAppRPCs:     1024,
		Seed:           seed,
	}
}

func (e Effort) datasetOptions(seed uint64) DatasetOptions {
	return DatasetOptions{
		Seed:                 seed,
		NormalTraces:         e.NormalTraces,
		AnomalousTrainTraces: e.AnomalousTrain,
		NumQueries:           e.NumQueries,
		SLOPercentile:        95,
	}
}

// TrainSleuth builds and trains a Sleuth model on a dataset.
func TrainSleuth(ds *Dataset, variant core.Variant, effort Effort) (*core.Model, error) {
	m := core.NewModel(core.Config{EmbeddingDim: 16, Hidden: 32, Variant: variant, Seed: effort.Seed})
	if _, err := m.Train(ds.Train, core.TrainOptions{
		Epochs:       effort.TrainEpochs,
		LearningRate: 3e-3,
		Seed:         effort.Seed,
	}); err != nil {
		return nil, err
	}
	m.SetNormals(ds.Normal)
	return m, nil
}

// --- Figure 1: n-sigma degradation with scale -----------------------------

// Fig1Row is one point of Figure 1.
type Fig1Row struct {
	Services int
	BestF1   float64
	BestACC  float64
	OptimalN float64
}

// Fig1 sweeps the n-sigma rule across application scales, reporting the
// best achievable F1/ACC and the n that achieves it. The paper's curve —
// sharp decline with scale, optimal n drifting off 3 — should reproduce.
func Fig1(effort Effort) ([]Fig1Row, error) {
	sizes := []int{16, 64, 256}
	if effort.MaxAppRPCs >= 1024 {
		sizes = append(sizes, 1024)
	}
	var rows []Fig1Row
	for _, n := range sizes {
		app := synth.Synthetic(n, effort.Seed)
		ds, err := BuildDataset(app, effort.datasetOptions(effort.Seed+uint64(n)))
		if err != nil {
			return nil, err
		}
		best := Fig1Row{Services: len(app.Services)}
		for ns := 1.0; ns <= 6.0; ns += 0.5 {
			algo := baselines.NewNSigma(ns)
			c, _, err := Evaluate(algo, ds)
			if err != nil {
				return nil, err
			}
			if c.F1() > best.BestF1 {
				best.BestF1 = c.F1()
				best.BestACC = c.ACC()
				best.OptimalN = ns
			}
		}
		rows = append(rows, best)
	}
	return rows, nil
}

// RenderFig1 formats Figure 1 as a table.
func RenderFig1(rows []Fig1Row) string {
	t := Table{Header: []string{"services", "best F1", "ACC", "optimal n"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Services), fmt.Sprintf("%.2f", r.BestF1),
			fmt.Sprintf("%.2f", r.BestACC), fmt.Sprintf("%.1f", r.OptimalN))
	}
	return t.String()
}

// --- Figure 3: span-duration CDF ------------------------------------------

// Fig3 simulates a SocialNetwork-like application and returns the CDF of
// span durations normalised to the minimum, on the paper's log scale.
func Fig3(effort Effort) (*Series, error) {
	app := synth.SocialNetworkLike(effort.Seed)
	s := sim.New(app, sim.DefaultOptions(effort.Seed))
	results, err := s.Run(0, effort.NormalTraces)
	if err != nil {
		return nil, err
	}
	var durs []float64
	for _, r := range results {
		for _, sp := range r.Trace.Spans {
			durs = append(durs, float64(sp.Duration()))
		}
	}
	min := stats.Min(durs)
	if min < 1 {
		min = 1
	}
	norm := make([]float64, len(durs))
	for i, d := range durs {
		norm[i] = d / min
	}
	pts := stats.CDF(norm, 40)
	series := &Series{Name: "Fig3 span duration CDF", XLabel: "duration / min (log10)", YLabel: "CDF"}
	for _, p := range pts {
		series.X = append(series.X, math.Log10(p.Value))
		series.Y = append(series.Y, p.Fraction)
	}
	return series, nil
}

// --- Table 1: benchmark specifications ------------------------------------

// Table1 returns the specification rows of every benchmark application.
func Table1(seed uint64) Table {
	apps := []*synth.App{
		synth.SockShopLike(seed),
		synth.SocialNetworkLike(seed),
		synth.Synthetic(16, seed),
		synth.Synthetic(64, seed),
		synth.Synthetic(256, seed),
		synth.Synthetic(1024, seed),
	}
	t := Table{Header: []string{"benchmark", "services", "RPCs", "max spans", "max depth", "max out degree"}}
	for _, a := range apps {
		spec := a.Spec()
		t.AddRow(spec.Name, fmt.Sprint(spec.Services), fmt.Sprint(spec.RPCs),
			fmt.Sprint(spec.MaxSpans), fmt.Sprint(spec.MaxDepth), fmt.Sprint(spec.MaxOutDegree))
	}
	return t
}

// --- shared dataset roster for Table 3 / Figure 5 -------------------------

// BenchmarkApp names one evaluation application.
type BenchmarkApp struct {
	Name string
	App  *synth.App
}

// BenchmarkApps returns the Table-3 roster, capped by effort.
func BenchmarkApps(effort Effort) []BenchmarkApp {
	apps := []BenchmarkApp{
		{"SockShop", synth.SockShopLike(effort.Seed)},
		{"SocialNet", synth.SocialNetworkLike(effort.Seed)},
		{"Syn-64", synth.Synthetic(64, effort.Seed)},
	}
	if effort.MaxAppRPCs >= 256 {
		apps = append(apps, BenchmarkApp{"Syn-256", synth.Synthetic(256, effort.Seed)})
	}
	if effort.MaxAppRPCs >= 1024 {
		apps = append(apps, BenchmarkApp{"Syn-1024", synth.Synthetic(1024, effort.Seed)})
	}
	return apps
}

// sleuthAlgorithm builds the Localizer wrapper for evaluation.
func sleuthAlgorithm(m *core.Model) *rca.Localizer {
	return rca.NewLocalizer(m, rca.DefaultOptions())
}
