// Command sleuthctl drives the Sleuth pipeline against stored traces:
//
//	sleuthctl train   -traces spans.jsonl -model model.gob [-epochs 5]
//	sleuthctl rca     -traces incident.jsonl -normal spans.jsonl -model model.gob
//	sleuthctl cluster -traces incident.jsonl
//	sleuthctl ops     -traces spans.jsonl      # per-operation statistics
//	sleuthctl traces  -addr localhost:4318 -slowest   # list ring-resident request traces
//	sleuthctl trace   -addr localhost:4318,localhost:8500 <id>  # joined span tree
//	sleuthctl watch   -addr localhost:4318     # live sparkline telemetry view
//	sleuthctl alerts  -addr localhost:4318     # watchdog alert states
//
// Trace files are span JSONL as written by tracegen or the collector.
//
// train and rca accept -metrics to print the metrics-registry snapshot
// after the run: the stage timings (core.train.epoch_us,
// cluster.pairwise_us, cluster.hdbscan_us, rca.localize_us) are its
// histograms. trace and traces read the per-request span trees a running
// collector or model server keeps in its trace ring.
package main

import (
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
	fmt.Fprintln(os.Stderr, "usage: sleuthctl <train|rca|cluster|ops|trace|traces|watch|alerts> [flags]")
	os.Exit(2)
}

// loadTraces returns a spans file's traces in the order they first appear.
// One store shard keeps that order; the default GOMAXPROCS shards would
// interleave it by shard, and what train learns and rca reports would then
// depend on the core count.
func loadTraces(path string) ([]*trace.Trace, error) {
	st := store.NewSharded(1)
	skipped, err := st.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "sleuthctl: %s: skipped %d malformed span lines\n", path, skipped)
	}
	return st.Traces(store.Query{}), nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "training spans JSONL (required)")
	modelPath := fs.String("model", "model.gob", "output model path")
	epochs := fs.Int("epochs", 5, "training epochs")
	lr := fs.Float64("lr", 1e-3, "learning rate")
	batch := fs.Int("batch", 1, "mini-batch size (traces per optimizer step)")
	seed := fs.Uint64("seed", 1, "training seed")
	metrics := fs.Bool("metrics", false, "print the metrics registry (Prometheus text) after the run")
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
		// Watch the run itself: the training pack (loss spike, grad-norm
		// blowup) evaluated on every one-second sampler sweep, surfaced on
		// /debug/alerts and in the `sleuthctl watch` banner.
		engine := alert.New(obs.StartSampler(time.Second))
		if err := engine.Add(alert.TrainingRules()...); err != nil {
			return err
		}
		engine.Register()
		mux := http.NewServeMux()
		obs.Mount(mux)
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "sleuthctl: debug server: %v\n", err)
			}
		}()
	}
	traces, err := loadTraces(*tracesPath)
	if err != nil {
		return err
	}
	fmt.Printf("training on %d traces...\n", len(traces))
	m, err := sleuth.Train(traces, sleuth.TrainConfig{
		Epochs: *epochs, LearningRate: *lr,
		BatchSize: *batch, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := sleuth.SaveModel(*modelPath, m); err != nil {
		return err
	}
	fmt.Printf("saved model (%d parameters, %d known operations) to %s\n",
		m.NumParams(), m.NormalsSize(), *modelPath)
	if *metrics {
		obs.WritePrometheus(os.Stdout, obs.Global())
	}
	return nil
}

func cmdRCA(args []string) error {
	fs := flag.NewFlagSet("rca", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "anomalous spans JSONL (required)")
	normalPath := fs.String("normal", "", "normal spans JSONL for SLO calibration")
	modelPath := fs.String("model", "model.gob", "trained model path")
	metrics := fs.Bool("metrics", false, "print the metrics registry (Prometheus text) after the run")
	_ = fs.Parse(args)
	if *tracesPath == "" {
		return fmt.Errorf("rca: -traces is required")
	}
	if *metrics {
		obs.Enable()
	}
	m, err := sleuth.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	analyzer := sleuth.NewAnalyzer(m)
	if *normalPath != "" {
		normal, err := loadTraces(*normalPath)
		if err != nil {
			return err
		}
		m.SetNormals(normal)
		analyzer.SetSLOs(sleuth.SLOs(normal))
	}
	traces, err := loadTraces(*tracesPath)
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
	if *metrics {
		obs.WritePrometheus(os.Stdout, obs.Global())
	}
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "spans JSONL (required)")
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
	m := cluster.Pairwise(cluster.TraceSets(traces, cluster.DefaultMaxAncestors))
	pairwiseDone := time.Now()
	labels := cluster.HDBSCAN(m, cluster.DefaultOptions())
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
