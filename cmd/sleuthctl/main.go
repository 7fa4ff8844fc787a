// Command sleuthctl drives the Sleuth pipeline against stored traces:
//
//	sleuthctl train   -traces spans.jsonl -model model.gob [-epochs 5]
//	sleuthctl rca     -traces incident.jsonl -normal spans.jsonl -model model.gob
//	sleuthctl cluster -traces incident.jsonl
//	sleuthctl ops     -traces spans.jsonl      # per-operation statistics
//	sleuthctl selftrace -in selftrace.json     # replay a pipeline self-trace
//	sleuthctl traces  -addr localhost:4318 -slowest   # list ring-resident self-traces
//	sleuthctl trace   -addr localhost:4318,localhost:8500 <id>  # joined span tree
//	sleuthctl watch   -addr localhost:4318     # live sparkline telemetry view
//	sleuthctl alerts  -addr localhost:4318     # watchdog alert states
//
// Trace files are span JSONL as written by tracegen or the collector.
//
// train and rca accept -selftrace out.json to record Sleuth's own pipeline
// stages as an OTLP document in the same span schema it analyzes, and
// -metrics to print the metrics-registry snapshot after the run. A
// self-trace replays through `sleuthctl selftrace`, which applies Sleuth's
// own trace machinery (assembly, exclusive durations, critical path) to
// Sleuth's own execution.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	sleuth "github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/obs/alert"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "rca":
		err = cmdRCA(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "ops":
		err = cmdOps(os.Args[2:])
	case "selftrace":
		err = cmdSelfTrace(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "traces":
		err = cmdTraces(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "alerts":
		err = cmdAlerts(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sleuthctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sleuthctl <train|rca|cluster|ops|selftrace|trace|traces|watch|alerts> [flags]")
	os.Exit(2)
}

func loadTraces(path string) ([]*trace.Trace, error) {
	st := store.New()
	skipped, err := st.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "sleuthctl: %s: skipped %d malformed span lines\n", path, skipped)
	}
	return st.Traces(store.Query{}), nil
}

// writeSelfTrace exports a pipeline self-trace as an OTLP document.
func writeSelfTrace(path string, tracer *sleuth.Tracer) error {
	if path == "" || tracer == nil {
		return nil
	}
	data, err := otel.EncodeOTLP(tracer.Spans())
	if err != nil {
		return fmt.Errorf("encoding self-trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("self-trace (%d spans) written to %s — replay with: sleuthctl selftrace -in %s\n",
		tracer.Len(), path, path)
	return nil
}

// dumpMetrics prints the process metrics-registry snapshot.
func dumpMetrics() {
	data, err := json.MarshalIndent(obs.Global().Snapshot(), "", "  ")
	if err != nil {
		return
	}
	fmt.Printf("metrics snapshot:\n%s\n", data)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "training spans JSONL (required)")
	modelPath := fs.String("model", "model.gob", "output model path")
	epochs := fs.Int("epochs", 5, "training epochs")
	lr := fs.Float64("lr", 1e-3, "learning rate")
	batch := fs.Int("batch", 1, "mini-batch size (traces per optimizer step)")
	workers := fs.Int("workers", 0, "gradient workers per batch (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 1, "training seed")
	selftrace := fs.String("selftrace", "", "write the pipeline self-trace (OTLP JSON) here")
	metrics := fs.Bool("metrics", false, "print the metrics-registry snapshot after the run")
	debugAddr := fs.String("debug-addr", "", "serve /metrics and /debug/series on this address during the run (watch with: sleuthctl watch -addr <addr>)")
	_ = fs.Parse(args)
	if *tracesPath == "" {
		return fmt.Errorf("train: -traces is required")
	}
	if *metrics {
		obs.Enable()
	}
	if *debugAddr != "" {
		obs.Enable()
		obs.StartSampler(time.Second)
		// Watch the run itself: the training pack (loss spike, grad-norm
		// blowup) evaluated on a short tick, surfaced on /debug/alerts
		// and in the `sleuthctl watch` banner.
		engine := alert.New(obs.Global(), 5*time.Second)
		if err := engine.Add(alert.TrainingRules()...); err != nil {
			return err
		}
		engine.Register()
		engine.Start()
		defer engine.Stop()
		mux := http.NewServeMux()
		obs.Mount(mux)
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "sleuthctl: debug server: %v\n", err)
			}
		}()
	}
	var tracer *sleuth.Tracer
	if *selftrace != "" {
		tracer = sleuth.NewSelfTracer("")
	}
	collectSpan := tracer.Start("collect", nil)
	traces, err := loadTraces(*tracesPath)
	collectSpan.End()
	if err != nil {
		return err
	}
	fmt.Printf("training on %d traces...\n", len(traces))
	m, err := sleuth.Train(traces, sleuth.TrainConfig{
		Epochs: *epochs, LearningRate: *lr,
		BatchSize: *batch, Workers: *workers, Seed: *seed,
		Tracer: tracer,
	})
	if err != nil {
		return err
	}
	if err := sleuth.SaveModel(*modelPath, m); err != nil {
		return err
	}
	fmt.Printf("saved model (%d parameters, %d known operations) to %s\n",
		m.NumParams(), m.NormalsSize(), *modelPath)
	if err := writeSelfTrace(*selftrace, tracer); err != nil {
		return err
	}
	if *metrics {
		dumpMetrics()
	}
	return nil
}

func cmdRCA(args []string) error {
	fs := flag.NewFlagSet("rca", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "anomalous spans JSONL (required)")
	normalPath := fs.String("normal", "", "normal spans JSONL for SLO calibration")
	modelPath := fs.String("model", "model.gob", "trained model path")
	selftrace := fs.String("selftrace", "", "write the pipeline self-trace (OTLP JSON) here")
	metrics := fs.Bool("metrics", false, "print the metrics-registry snapshot after the run")
	_ = fs.Parse(args)
	if *tracesPath == "" {
		return fmt.Errorf("rca: -traces is required")
	}
	if *metrics {
		obs.Enable()
	}
	var tracer *sleuth.Tracer
	if *selftrace != "" {
		tracer = sleuth.NewSelfTracer("")
	}
	m, err := sleuth.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	analyzer := sleuth.NewAnalyzer(m)
	analyzer.Tracer = tracer
	if *normalPath != "" {
		normal, err := loadTraces(*normalPath)
		if err != nil {
			return err
		}
		m.SetNormals(normal)
		analyzer.SetSLOs(sleuth.SLOs(normal))
	}
	collectSpan := tracer.Start("collect", nil)
	traces, err := loadTraces(*tracesPath)
	collectSpan.End()
	if err != nil {
		return err
	}
	var anomalous []*trace.Trace
	for _, tr := range traces {
		if analyzer.IsAnomalous(tr) {
			anomalous = append(anomalous, tr)
		}
	}
	fmt.Printf("%d of %d traces anomalous\n", len(anomalous), len(traces))
	report := analyzer.Analyze(anomalous)
	fmt.Printf("%d diagnoses from %d GNN inferences:\n", len(report.Diagnoses), report.Inferences)
	for _, d := range report.Diagnoses {
		label := fmt.Sprintf("cluster %d", d.ClusterID)
		if d.ClusterID < 0 {
			label = "unclustered"
		}
		fmt.Printf("  %-12s traces=%-4d root causes: services=%v pods=%v nodes=%v\n",
			label, len(d.TraceIDs), d.Services, d.Pods, d.Nodes)
	}
	if err := writeSelfTrace(*selftrace, tracer); err != nil {
		return err
	}
	if *metrics {
		dumpMetrics()
	}
	return nil
}

// cmdSelfTrace replays a pipeline self-trace through Sleuth's own trace
// machinery: the OTLP document is decoded with the same codec the
// collector uses, assembled with the same Assemble, and reported with the
// same exclusive-duration and critical-path analysis the RCA stage applies
// to application traces.
func cmdSelfTrace(args []string) error {
	fs := flag.NewFlagSet("selftrace", flag.ExitOnError)
	in := fs.String("in", "", "self-trace OTLP JSON written by -selftrace (required)")
	_ = fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("selftrace: -in is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	spans, err := otel.DecodeOTLP(data)
	if err != nil {
		return err
	}
	traces, skipped := trace.AssembleAll(spans)
	if skipped > 0 {
		fmt.Printf("warning: %d span groups did not assemble\n", skipped)
	}
	for _, tr := range traces {
		fmt.Printf("self-trace %s: %d stages, %dµs end-to-end\n",
			tr.TraceID, tr.Len(), tr.RootDuration())
		// Stage tree with durations; exclusive duration separates a
		// stage's own cost from its sub-stages'.
		var walk func(i, depth int)
		walk = func(i, depth int) {
			sp := tr.Spans[i]
			fmt.Printf("  %s%-*s %10dµs  (exclusive %dµs)\n",
				strings.Repeat("  ", depth), 28-2*depth, sp.Name,
				sp.Duration(), tr.ExclusiveDuration(i))
			for _, c := range tr.Children(i) {
				walk(c, depth+1)
			}
		}
		for _, r := range tr.Roots() {
			walk(r, 0)
		}
		var path []string
		for _, i := range tr.CriticalPath() {
			path = append(path, tr.Spans[i].Name)
		}
		fmt.Printf("  critical path: %s\n", strings.Join(path, " → "))
	}
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "spans JSONL (required)")
	minSize := fs.Int("min-cluster-size", 4, "HDBSCAN min cluster size")
	minSamples := fs.Int("min-samples", 2, "HDBSCAN min samples")
	eps := fs.Float64("epsilon", 0.1, "HDBSCAN selection epsilon")
	dmax := fs.Int("dmax", cluster.DefaultMaxAncestors, "ancestor window of span identifiers")
	timing := fs.Bool("timing", false, "print per-stage wall clock (pairwise / hdbscan / medoids)")
	_ = fs.Parse(args)
	if *tracesPath == "" {
		return fmt.Errorf("cluster: -traces is required")
	}
	traces, err := loadTraces(*tracesPath)
	if err != nil {
		return err
	}
	start := time.Now()
	sets := cluster.TraceSets(traces, *dmax)
	m := cluster.Pairwise(sets)
	pairwiseDone := time.Now()
	labels := cluster.HDBSCAN(m, cluster.Options{
		MinClusterSize: *minSize, MinSamples: *minSamples, SelectionEpsilon: *eps,
	})
	hdbscanDone := time.Now()
	medoids := cluster.Medoids(m, labels)
	if *timing {
		fmt.Printf("timing: sets+pairwise=%s hdbscan=%s medoids=%s matrix=%dB\n",
			pairwiseDone.Sub(start).Round(time.Microsecond),
			hdbscanDone.Sub(pairwiseDone).Round(time.Microsecond),
			time.Since(hdbscanDone).Round(time.Microsecond),
			m.Bytes())
	}
	fmt.Printf("clustered %d traces: %s\n", len(traces), cluster.Summary(labels))
	var ids []int
	for l := range medoids {
		ids = append(ids, l)
	}
	sort.Ints(ids)
	for _, l := range ids {
		rep := traces[medoids[l]]
		fmt.Printf("  cluster %d representative: %s (%d spans, %dµs, errors=%v)\n",
			l, rep.TraceID, rep.Len(), rep.RootDuration(), rep.HasError())
	}
	return nil
}

func cmdOps(args []string) error {
	fs := flag.NewFlagSet("ops", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "spans JSONL (required)")
	_ = fs.Parse(args)
	if *tracesPath == "" {
		return fmt.Errorf("ops: -traces is required")
	}
	st := store.New()
	skipped, err := st.LoadFile(*tracesPath)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "sleuthctl: %s: skipped %d malformed span lines\n", *tracesPath, skipped)
	}
	fmt.Printf("%-60s %8s %10s %10s %10s %7s\n", "operation", "count", "median", "p95", "p99", "err%")
	for _, s := range st.OpSummaries() {
		op := strings.ReplaceAll(s.OpKey, "\x1f", " ")
		fmt.Printf("%-60s %8d %9.0fµ %9.0fµ %9.0fµ %6.2f%%\n",
			op, s.Count, s.Median, s.P95, s.P99, s.ErrorRate*100)
	}
	return nil
}
