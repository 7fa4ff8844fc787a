// Package sleuth is the public facade of the Sleuth reproduction: a
// trace-based root cause analysis system for large-scale microservices
// built on unsupervised graph learning (Gan et al., ASPLOS 2023).
//
// The package wires the subsystems together for the common workflows:
//
//	app := sleuth.NewSyntheticApp(64, 1)          // §5 benchmark generator
//	world := sleuth.NewWorld(app, 1)              // simulator + store
//	traces := world.SimulateNormal(500)           // production-like traffic
//	model, _ := sleuth.Train(traces, sleuth.DefaultTrainConfig())
//	analyzer := sleuth.NewAnalyzer(model)
//	report := analyzer.Analyze(anomalousTraces)   // cluster → localise
//
// Lower-level building blocks (the tensor autodiff engine, the GNN layers,
// the discrete-event simulator, the HDBSCAN implementation, the baseline
// algorithms and the experiment harness) live in internal packages; the
// cmd/ binaries and examples/ programs exercise them through this facade.
package sleuth

import (
	"fmt"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Re-exported core types. The aliases keep one canonical definition while
// letting applications work entirely through this package.
type (
	// App is a (synthetic) microservice application configuration.
	App = synth.App
	// Trace is an assembled distributed trace.
	Trace = trace.Trace
	// Span is one operation within a trace.
	Span = trace.Span
	// Fault is one injected failure.
	Fault = chaos.Fault
	// FaultPlan is a set of faults active during an incident.
	FaultPlan = chaos.Plan
	// Model is the trained Sleuth GNN.
	Model = core.Model
)

// NewSyntheticApp generates a §5 synthetic benchmark with n RPCs.
func NewSyntheticApp(n int, seed uint64) *App { return synth.Synthetic(n, seed) }

// NewSockShopApp returns the SockShop-shaped preset (Table 1).
func NewSockShopApp(seed uint64) *App { return synth.SockShopLike(seed) }

// NewSocialNetworkApp returns the DeathStarBench SocialNetwork-shaped
// preset (Table 1).
func NewSocialNetworkApp(seed uint64) *App { return synth.SocialNetworkLike(seed) }

// World couples an application with its simulator — the stand-in for a
// deployed cluster plus its tracing pipeline.
type World struct {
	App *App
	sim *sim.Simulator

	nextID int
}

// NewWorld creates a simulation world for the app.
func NewWorld(app *App, seed uint64) *World {
	return &World{App: app, sim: sim.New(app, sim.DefaultOptions(seed))}
}

// SimulateNormal produces n fault-free traces.
func (w *World) SimulateNormal(n int) ([]*Trace, error) {
	res, err := w.sim.Run(w.nextID, n)
	if err != nil {
		return nil, err
	}
	w.nextID += n
	return sim.Traces(res), nil
}

// Incident is one simulated outage: the active faults, the traces captured
// during it, and per-trace ground-truth root causes (available because the
// simulator can replay requests counterfactually).
type Incident struct {
	Plan   *FaultPlan
	Traces []*Trace
	// Truth[i] lists the ground-truth root-cause services of Traces[i].
	Truth [][]string
}

// SimulateIncident injects faults (random plan if plan is nil) and
// captures n traces with ground truth.
func (w *World) SimulateIncident(plan *FaultPlan, n int, seed uint64) (*Incident, error) {
	if plan == nil {
		plan = chaos.GeneratePlan(w.App, chaos.DefaultPlanParams(), xrand.New(seed))
	}
	inc := &Incident{Plan: plan}
	for i := 0; i < n; i++ {
		sample, err := w.sim.SimulateWithTruth(w.nextID, plan)
		w.nextID++
		if err != nil {
			return nil, err
		}
		inc.Traces = append(inc.Traces, sample.Result.Trace)
		inc.Truth = append(inc.Truth, sample.RootServices)
	}
	return inc, nil
}

// InjectFault builds a single-fault plan against a service by name.
func (w *World) InjectFault(service string, f Fault) (*FaultPlan, error) {
	if w.App.ServiceIndex(service) < 0 {
		return nil, fmt.Errorf("sleuth: unknown service %q", service)
	}
	f.Target = service
	if f.Level == "" {
		f.Level = chaos.LevelContainer
	}
	return chaos.NewPlan(w.App, f), nil
}

// SLOs calibrates per-operation p95 latency SLOs from normal traces.
func SLOs(normal []*Trace) map[string]float64 {
	byRoot := map[string][]float64{}
	for _, tr := range normal {
		root := tr.Spans[tr.Roots()[0]]
		byRoot[root.OpKey()] = append(byRoot[root.OpKey()], float64(tr.RootDuration()))
	}
	out := make(map[string]float64, len(byRoot))
	for k, ds := range byRoot {
		out[k] = stats.Percentile(ds, 95)
	}
	return out
}

// TrainConfig tunes model training through the facade.
type TrainConfig struct {
	// EmbeddingDim, Hidden size the model (defaults 32 / 64).
	EmbeddingDim int
	Hidden       int
	// Epochs and LearningRate drive optimisation (defaults 5 / 1e-3).
	Epochs       int
	LearningRate float64
	// BatchSize is the number of traces averaged into one optimizer step
	// (default 1, the paper's per-trace SGD).
	BatchSize int
	// Seed makes training reproducible.
	Seed uint64
}

// DefaultTrainConfig returns the shipped training configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 5, LearningRate: 1e-3}
}

// Train fits a Sleuth model on (unlabeled) traces. Normal-state statistics
// are computed from the same corpus; call Model.SetNormals with a cleaner
// baseline when one is available.
func Train(traces []*Trace, cfg TrainConfig) (*Model, error) {
	m := core.NewModel(core.Config{
		EmbeddingDim: cfg.EmbeddingDim,
		Hidden:       cfg.Hidden,
		Seed:         cfg.Seed,
	})
	_, err := m.Train(traces, core.TrainOptions{
		Epochs:       cfg.Epochs,
		LearningRate: cfg.LearningRate,
		BatchSize:    cfg.BatchSize,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// FineTune adapts a pre-trained model to a new application with few
// samples (§6.5). The model is modified in place.
func FineTune(m *Model, traces []*Trace, cfg TrainConfig) error {
	_, err := m.FineTune(traces, core.TrainOptions{
		Epochs:       cfg.Epochs,
		LearningRate: cfg.LearningRate,
		BatchSize:    cfg.BatchSize,
		Seed:         cfg.Seed,
	})
	return err
}

// SaveModel / LoadModel persist models (the model server's storage, §4).
func SaveModel(path string, m *Model) error { return m.SaveFile(path) }

// LoadModel reads a model written by SaveModel.
func LoadModel(path string) (*Model, error) { return core.LoadFile(path) }

// Analyzer is the inference-side pipeline: trace clustering (§3.3) plus
// counterfactual localisation (§3.5).
type Analyzer struct {
	Localizer *rca.Localizer
	// SLO maps root operation keys to latency objectives (µs); traces of
	// unknown operations use GlobalSLO.
	SLO       map[string]float64
	GlobalSLO float64
	// ClusterMinSize etc. tune the HDBSCAN stage.
	ClusterMinSize   int
	ClusterMinSamp   int
	ClusterEpsilon   float64
	MaxAncestorDepth int
}

// NewAnalyzer wraps a trained model with default inference settings.
func NewAnalyzer(m *Model) *Analyzer {
	policy := cluster.DefaultOptions()
	return &Analyzer{
		Localizer:        rca.NewLocalizer(m, rca.DefaultOptions()),
		SLO:              map[string]float64{},
		GlobalSLO:        1_000_000,
		ClusterMinSize:   policy.MinClusterSize,
		ClusterMinSamp:   policy.MinSamples,
		ClusterEpsilon:   policy.SelectionEpsilon,
		MaxAncestorDepth: cluster.DefaultMaxAncestors,
	}
}

// SetSLOs installs per-operation SLOs (see SLOs).
func (a *Analyzer) SetSLOs(slos map[string]float64) {
	a.SLO = slos
	var all []float64
	for _, v := range slos {
		all = append(all, v)
	}
	if len(all) > 0 {
		a.GlobalSLO = stats.Percentile(all, 95)
	}
}

func (a *Analyzer) sloFor(tr *Trace) float64 {
	root := tr.Spans[tr.Roots()[0]]
	if v, ok := a.SLO[root.OpKey()]; ok {
		return v
	}
	return a.GlobalSLO
}

// Diagnosis is the per-cluster outcome of an analysis.
type Diagnosis struct {
	// ClusterID is the failure-mode label (-1 for unclustered traces).
	ClusterID int
	// TraceIDs lists the traces sharing this diagnosis.
	TraceIDs []string
	// Services / Pods / Nodes are the predicted root-cause instances.
	Services []string
	Pods     []string
	Nodes    []string
	// Deprecated: always zero; removed with the benchmark's rca.pruned_per_query row (ROADMAP item 1).
	PrunedCandidates int
	// Deprecated: always zero; removed with the benchmark's rca.pruned_per_query row (ROADMAP item 1).
	Pruning []rca.PruneDecision
}

// Report is the outcome of Analyze.
type Report struct {
	Diagnoses []Diagnosis
	// Inferences counts GNN RCA queries executed (medoids + noise).
	Inferences int
}

// Analyze runs the full pipeline over a batch of anomalous traces:
// distance computation, then rca.LocalizeClustered (HDBSCAN, medoid
// localisation, and propagation of each medoid's diagnosis to its
// cluster). Diagnoses come in LocalizeClustered's order: noise traces one
// by one in batch order, then clusters by ascending label.
func (a *Analyzer) Analyze(anomalous []*Trace) *Report {
	report := &Report{}
	if len(anomalous) == 0 {
		return report
	}
	m := cluster.Pairwise(cluster.TraceSets(anomalous, a.MaxAncestorDepth))
	slos := make([]float64, len(anomalous))
	for i, tr := range anomalous {
		slos[i] = a.sloFor(tr)
	}
	groups := a.Localizer.LocalizeClustered(anomalous, slos, m, cluster.Options{
		MinClusterSize:   a.ClusterMinSize,
		MinSamples:       a.ClusterMinSamp,
		SelectionEpsilon: a.ClusterEpsilon,
	})
	for _, g := range groups {
		d := Diagnosis{ClusterID: g.Label, Services: g.Result.Services, Pods: g.Result.Pods, Nodes: g.Result.Nodes}
		for _, i := range g.Members {
			d.TraceIDs = append(d.TraceIDs, anomalous[i].TraceID)
		}
		sort.Strings(d.TraceIDs)
		report.Diagnoses = append(report.Diagnoses, d)
	}
	report.Inferences = len(groups)
	return report
}

// Localize runs a single-trace RCA query without clustering.
func (a *Analyzer) Localize(tr *Trace) []string {
	return a.Localizer.Localize(tr, a.sloFor(tr))
}

// IsAnomalous reports whether a trace violates its SLO or carries errors.
func (a *Analyzer) IsAnomalous(tr *Trace) bool {
	return float64(tr.RootDuration()) > a.sloFor(tr) || tr.HasError()
}
