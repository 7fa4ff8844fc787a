// Command benchmark is sleuthbench, the repository's one benchmark: five
// workloads from an OTLP POST to a ranked root cause, the end-to-end metrics
// of BENCHMARK.json from an untraced closed-loop run, and a per-layer budget
// from a traced, staged replay of the same inputs. README.md has the method.
//
//	go run -C benchmark . -workload incident_e2e -seed 1 -seconds 10 -trace 0
//	go run -C benchmark . -repeat 10            # spread and drift of every metric
//
// One process runs one workload, so peak_rss_mb is per workload. The last
// line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// outDir holds what a run leaves behind (the model registry while it runs,
// span dumps); it is ignored by git from inside this directory.
const outDir = "out"

// setupRepeats is how often an untraced run sets up, to report the median.
const setupRepeats = 3

// measured is one metric value as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	ops      int
	trace    bool
	sc       scale
}

func main() {
	var o options
	var traceFlag, repeat int
	flag.StringVar(&o.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of traffic, faults and training order (2 is the held-out seed)")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&o.ops, "ops", 0, "measure exactly this many ops instead of -seconds, so counts repeat exactly")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced staged replay and prints the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run every workload (or -workload) this many times with seeds from -seed, twice over, and print each metric's median, spread and drift against its bound")
	flag.Parse()
	o.trace, o.sc = traceFlag != 0, fullScale

	if err := pinned(); err != nil {
		fail(err)
	}
	if repeat > 0 {
		if err := repeatRuns(o, repeat); err != nil {
			fail(err)
		}
		return
	}
	if newWorkload(o.workload) == nil {
		fail(fmt.Errorf("unknown -workload %q; want one of %s", o.workload, strings.Join(workloadNames(), ", ")))
	}
	printProvenance(o)
	res, err := measure(o)
	if err != nil {
		fail(err)
	}
	printResult(res, o.trace)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sleuthbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// pinned refuses to run with any SLEUTH_* variable set: they retune
// batching, workers, sampling and pruning, and a result measured under one
// cannot be compared with one that was not.
func pinned() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "SLEUTH_") {
			return fmt.Errorf("%s is set; the benchmark measures the shipped configuration only", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

// printProvenance stamps the run with what it takes to compare it later.
func printProvenance(o options) {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	fmt.Printf("# sleuthbench workload=%s seed=%d seconds=%g ops=%d trace=%t\n", o.workload, o.seed, o.seconds, o.ops, o.trace)
	fmt.Printf("# gomaxprocs=%d nproc=%d cpu=%q go=%s git=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), sha)
}

func printResult(res result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-40s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// measure runs one workload once and returns its result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func measure(o options) (result, error) {
	budget := budget{d: time.Duration(o.seconds * float64(time.Second)), ops: o.ops}
	if o.ops > 0 {
		budget.d = 0
	}
	// An untimed 5% prefix warms connections, the model cache, the arena
	// pool and the embedder.
	warm := budget
	warm.d, warm.ops = budget.d/20, (budget.ops+19)/20

	if o.trace {
		w, _, err := setUp(o, 1)
		if err != nil {
			return result{}, err
		}
		defer w.close()
		// A quarter of the time goes to the real path with tracing off —
		// the base of e2e.trace_overhead_ratio and of the HTTP overheads —
		// and the rest to the staged replay.
		untraced := budget
		untraced.d, untraced.ops = budget.d/4, (budget.ops+3)/4
		w.run(warm)
		base := w.run(untraced)
		rp := newReplayer(w.world())
		defer rp.close()
		staged := budget
		staged.d = budget.d - untraced.d
		w.replay(staged, rp)
		if err := rp.rec.write(outDir, o.workload); err != nil {
			return result{}, err
		}
		return layerResult(rp, base, w.setupCounters()), nil
	}

	w, setupS, err := setUp(o, setupRepeats)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	resetPeakRSS()
	w.run(warm)
	runtime.GC()
	r := w.run(budget)
	if r.ops() == 0 {
		return result{}, errors.New("no op finished inside the budget")
	}
	return endToEndResult(r, setupS)
}

// setUp sets the workload up n times from the same seed — each from
// scratch, the earlier ones discarded — and returns the last with the
// median set-up time.
func setUp(o options, n int) (workload, float64, error) {
	var w workload
	var times []float64
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		w = newWorkload(o.workload)
		if err := w.setup(o.seed, o.sc, outDir); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

func endToEndResult(r runResult, setupS float64) (result, error) {
	blocks, timed := r.blocks()
	if need := tailPercentile(timed); need < r.tailPct {
		fmt.Fprintf(os.Stderr, "sleuthbench: %d samples support p%g at most; latency_tail_ms reports p%g\n", timed, need, r.tailPct)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# ops=%d blocks=%d samples=%d (tail p%g) elapsed=%.2fs clients=%d loadgen.busy_share=%.4f\n",
		r.ops(), len(blocks), timed, r.tailPct, r.elapsed.Seconds(), r.clients, share(float64(r.busy), float64(r.opTime())))
	fmt.Print("# ops_per_s by block:")
	for _, b := range blocks {
		fmt.Printf(" %.4g", b.opsPerS)
	}
	fmt.Println()
	over := func(f func(block) float64) float64 {
		xs := make([]float64, len(blocks))
		for i, b := range blocks {
			xs[i] = f(b)
		}
		return median(xs)
	}
	values := map[string]float64{
		"setup_s":         setupS,
		"latency_p50_ms":  over(func(b block) float64 { return b.p50Ms }),
		"latency_tail_ms": over(func(b block) float64 { return b.tailMs }),
		"ops_per_s":       over(func(b block) float64 { return b.opsPerS }),
		"spans_per_s":     over(func(b block) float64 { return b.spansPerS }),
		"correct_ratio":   share(float64(r.right), float64(r.checked)),
		"peak_rss_mb":     rss,
	}
	return newResult(endToEnd, values, r.ops(), r.failed), nil
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]measured{}}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	return res
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// resetPeakRSS returns set-up's garbage to the system and restarts the
// kernel's resident-set high-water mark, so that peak_rss_mb is the peak of
// the warm-up and measured phases and not of three set-ups. Where the kernel
// refuses, the mark covers the whole process; the run says which.
func resetPeakRSS() {
	debug.FreeOSMemory()
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	fmt.Printf("# peak_rss_mb excludes set-up: %t\n", err == nil)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// layerResult turns the spans and counters of a traced run into the
// per-layer table. base is the untraced pass of the same run.
func layerResult(rp *replayer, base runResult, setup counters) result {
	rec, c := rp.rec, rp.c
	for k, v := range setup {
		c[k] = v
	}
	totals := rec.totals()
	us := func(name string) float64 { return totals[name].ns / 1e3 }
	n := func(name string) float64 { return float64(totals[name].n) }
	decodeUs := us("otel.decode_otlp") + us("otel.decode_zipkin") + us("otel.decode_jaeger")
	selfNs, opNs := rec.selfTimes()

	v := map[string]float64{
		"otel.decode_otlp_us_per_span":   share(us("otel.decode_otlp"), c["otel.spans_otlp"]),
		"otel.decode_zipkin_us_per_span": share(us("otel.decode_zipkin"), c["otel.spans_zipkin"]),
		"otel.decode_jaeger_us_per_span": share(us("otel.decode_jaeger"), c["otel.spans_jaeger"]),
		"otel.decode_mb_per_s":           share(c["otel.bytes"], decodeUs),
		"otel.decode_errors":             c["otel.decode_errors"],

		"collector.handler_us_per_post":       share(us("collector.handler"), n("collector.handler")),
		"collector.self_us_per_post":          share(us("collector.handler")-decodeUs-us("ingest.submit"), n("collector.handler")),
		"collector.http_overhead_us_per_post": share(us("http.post_traces")-us("collector.handler"), n("http.post_traces")),
		"collector.non_202":                   c["collector.non_202"],

		"ingest.submit_us_per_batch": share(us("ingest.submit"), n("ingest.submit")),
		"ingest.flush_wait_ms":       share(us("ingest.flush")/1e3, n("ingest.flush")),
		"ingest.spans_accepted":      c["ingest.spans_accepted"],
		"ingest.spans_rejected":      c["ingest.spans_rejected"],
		"ingest.spans_dropped":       c["ingest.spans_dropped"],
		"ingest.traces_kept":         c["ingest.traces_kept"],
		"ingest.traces_shed":         c["ingest.traces_shed"],
		"ingest.keep_ratio":          share(c["ingest.traces_kept"], c["ingest.traces_kept"]+c["ingest.traces_shed"]),
		"ingest.queue_depth_max":     c["ingest.queue_depth_max"],

		"store.add_spans_us_per_span": share(us("store.add_spans"), c["store.added_spans"]),
		"store.fetch_ms":              share(us("store.fetch")/1e3, n("store.fetch")),
		"store.fetch_us_per_trace":    share(us("store.fetch"), c["store.fetch_returned"]),
		"store.fetch_traces_returned": share(c["store.fetch_returned"], n("store.fetch")),
		"store.op_summaries_ms":       c["store.op_summaries_ms"],
		"store.traces_held":           c["store.traces_held"],
		"store.spans_held":            c["store.spans_held"],
		"store.heap_mb":               c["store.heap_mb"],

		"trace.assemble_us_per_span":   share(us("trace.assemble")+us("trace.assemble_all"), c["trace.assembled_spans"]),
		"features.encode_us_per_span":  share(us("features.encode"), c["features.encoded_spans"]),
		"features.embed_registry_size": float64(len(rp.opKeys)),

		"core.score_batch_us_per_span":      share(us("core.score_batch"), c["core.scored_spans"]),
		"core.cf_open_us":                   share(us("core.cf_open"), n("core.cf_open")),
		"core.cf_question_us":               share(us("core.cf_question"), n("core.cf_question")),
		"core.cf_rows_updated_per_question": share(c["core.cf_rows"], c["core.cf_questions"]),
		"core.train_s":                      c["core.train_s"],
		"core.model_load_ms":                c["core.model_load_ms"],

		"modelserver.score_handler_us_per_req": share(us("modelserver.handler"), n("modelserver.handler")),
		"modelserver.self_us_per_req":          share(us("modelserver.handler")-us("trace.assemble_all")-us("core.score_batch"), n("modelserver.handler")),
		"modelserver.http_overhead_us_per_req": share(us("http.post_score")-us("modelserver.handler"), n("http.post_score")),
		"modelserver.non_200":                  c["modelserver.non_200"],

		"cluster.trace_sets_ms":        share(us("cluster.trace_sets")/1e3, c["cluster.ops"]),
		"cluster.pairwise_ms":          share(us("cluster.pairwise")/1e3, c["cluster.ops"]),
		"cluster.pairwise_ns_per_pair": share(totals["cluster.pairwise"].ns, c["cluster.pairs"]),
		"cluster.hdbscan_ms":           share(us("cluster.hdbscan")/1e3, c["cluster.ops"]),
		"cluster.medoids_ms":           share(us("cluster.medoids")/1e3, c["cluster.ops"]),
		"cluster.matrix_mb":            share(c["cluster.matrix_bytes"]/(1<<20), c["cluster.ops"]),
		"cluster.clusters":             share(c["cluster.clusters"], c["cluster.ops"]),
		"cluster.noise_traces":         share(c["cluster.noise"], c["cluster.ops"]),
		"cluster.inference_reduction":  share(c["cluster.anomalous"], c["cluster.inferences"]),

		"rca.localize_us_per_query": share(us("rca.localize"), c["rca.queries"]),
		"rca.queries":               c["rca.queries"],
		"rca.candidates_per_query":  share(c["rca.candidates"], c["rca.queries"]),
		"rca.pruned_per_query":      share(c["rca.pruned"], c["rca.queries"]),
		"rca.normalized_ratio":      share(c["rca.normalized"], c["rca.queries"]),
		"rca.hit_rate":              share(float64(rp.tally.right), float64(rp.tally.checked)),

		"loadgen.busy_share":       share(float64(base.busy), float64(base.opTime())),
		"loadgen.encode_s":         c["loadgen.encode_s"],
		"e2e.unattributed_share":   share(selfNs["e2e"], opNs),
		"e2e.trace_overhead_ratio": share(share(opNs, c["e2e.ops"]), share(float64(base.opTime()), float64(base.ops()))),
		"e2e.failed_ratio":         share(c["e2e.failed_ops"]+c["e2e.mirror_mismatch"], c["e2e.ops"]),
	}
	for _, l := range layers {
		v[l+".self_share"] = share(selfNs[l], opNs)
	}
	fmt.Printf("# staged ops=%d mirror_mismatch=%g untraced ops=%d\n", int(c["e2e.ops"]), c["e2e.mirror_mismatch"], base.ops())
	return newResult(perLayer, v, int(c["e2e.ops"])+base.ops(),
		int(c["e2e.failed_ops"]+c["e2e.mirror_mismatch"]+c["collector.non_202"]+c["modelserver.non_200"])+base.failed)
}
