package main

import (
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sleuth "github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/collector"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// workload is one of the five benchmark workloads. setup builds the inputs
// and the system under test from the seed; run drives the real path closed
// loop with tracing off; replay drives the staged path under a recorder.
// run and replay may be called more than once and start from the same state
// each time.
type workload interface {
	setup(seed uint64, sc scale, outDir string) error
	run(b budget) runResult
	replay(b budget, rp *replayer)
	// setupCounters reports what set-up measured for the per-layer table.
	setupCounters() counters
	world() *world
	close()
}

// base is the part of set-up every workload has.
type base struct{ w *world }

func (b *base) world() *world { return b.w }

func newWorkload(name string) workload {
	switch name {
	case "incident_e2e":
		return &incidentE2E{}
	case "ingest_firehose":
		return &firehose{}
	case "score_storm":
		return &scoreStorm{}
	case "diagnose_large":
		return &diagnoseLarge{}
	case "localize_stream":
		return &localizeStream{}
	}
	return nil
}

// budget bounds a phase by time, by a number of ops, or by whichever is
// spent first. A fixed number of ops makes every count repeat exactly.
type budget struct {
	d   time.Duration // 0: no limit
	ops int           // 0: no limit
}

// pacer hands out op indexes to the clients of one phase until the budget
// is spent.
type pacer struct {
	b     budget
	start time.Time
	next  atomic.Int64
}

func (b budget) begin() *pacer { return &pacer{b: b, start: time.Now()} }

// spent reports whether the next take would fail.
func (p *pacer) spent() bool {
	return p.b.d > 0 && time.Since(p.start) >= p.b.d || p.b.ops > 0 && int(p.next.Load()) >= p.b.ops
}

func (p *pacer) take() (i int, ok bool) {
	if p.spent() {
		return 0, false
	}
	i = int(p.next.Add(1) - 1)
	return i, p.b.ops == 0 || i < p.b.ops
}

// sample is one finished op of an untraced phase.
type sample struct {
	end   time.Duration // when the op finished, since the phase began
	lat   time.Duration // the workload's latency for it
	wall  time.Duration // what its caller waited in all, first send to result
	spans int
}

// runResult is what one untraced phase measured.
type runResult struct {
	samples []sample
	// blockOps is how many ops make one block; an op's cost may depend on
	// its position in the input cycle (the store fills, windows differ), so
	// a block is a whole number of cycles. See blocks.
	blockOps int
	tailPct  float64 // the percentile latency_tail_ms reports

	elapsed time.Duration
	busy    time.Duration // the load generator's own work inside the ops
	clients int

	failed int // ops that failed a check, plus failed end-of-run checks
	// tally gives correct_ratio = right / checked. The RCA workloads tally
	// their first pass through the inputs only, so that the ratio repeats
	// exactly for a seed however many ops a run got through.
	tally
}

func (r *runResult) ops() int { return len(r.samples) }

// opTime is the summed wall time of the ops, over all clients.
func (r *runResult) opTime() (d time.Duration) {
	for _, s := range r.samples {
		d += s.wall
	}
	return d
}

// block is the timing of blockOps consecutive ops.
type block struct {
	opsPerS, spansPerS, p50Ms, tailMs float64
}

// blocks cuts the ops, in the order they finished, into runs of blockOps and
// times each: its rate from the end of the block before to its own end, and
// its latency percentiles. A trailing part block is left out, and a phase
// shorter than one block is one block; timed is how many ops the blocks
// cover. The end-to-end timings are medians over blocks: the shared machine
// this was written on changes speed by a quarter for seconds at a time, and
// the median block sits at the speed the machine had for most of the run,
// where a figure over the whole run mixes the speeds in whatever proportion
// the run met them.
func (r *runResult) blocks() (out []block, timed int) {
	sorted := append([]sample(nil), r.samples...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].end < sorted[j].end })
	size := r.blockOps
	if size <= 0 || size > len(sorted) {
		size = len(sorted)
	}
	var from time.Duration
	for i := 0; i+size <= len(sorted); i += size {
		part := sorted[i : i+size]
		lat := make([]float64, size)
		spans := 0
		for k, s := range part {
			lat[k] = float64(s.lat) / 1e6
			spans += s.spans
		}
		d := (part[size-1].end - from).Seconds()
		from = part[size-1].end
		out = append(out, block{
			opsPerS: float64(size) / d, spansPerS: float64(spans) / d,
			p50Ms: median(lat), tailMs: stats.Percentile(lat, r.tailPct),
		})
	}
	return out, len(out) * size
}

// counters are the named counts and one-off timings the per-layer table is
// computed from, next to the recorder's spans.
type counters map[string]float64

func (c counters) max(name string, v float64) {
	if v > c[name] {
		c[name] = v
	}
}

var decoders = map[string]func([]byte) ([]*trace.Span, error){
	"otlp":   otel.DecodeOTLP,
	"zipkin": otel.DecodeZipkin,
	"jaeger": otel.DecodeJaeger,
}

var collectorPaths = map[string]string{
	"otlp":   "/v1/traces",
	"zipkin": "/api/v2/spans",
	"jaeger": "/api/traces",
}

// replayer holds what the staged replays share: the recorder, the counters,
// and scratch copies of the stateful layers, so that re-running a stage to
// measure it does not feed the system under test twice.
type replayer struct {
	rec   *recorder
	c     counters
	model *core.Model
	loc   *rca.Localizer
	tally tally
	// opKeys stands in for the embedder's registry, which the model does
	// not expose: one entry per distinct operation encoded.
	opKeys map[string]struct{}

	// pending holds attributions queued during an op, to run off its clock.
	pending []func()

	scratch  *collector.Collector // configured like the live one, writes nowhere
	scratchH http.Handler
	sink     *store.Store // takes the store.add_spans replays
}

func newReplayer(w *world) *replayer {
	return &replayer{
		rec: newRecorder(), c: counters{}, opKeys: map[string]struct{}{}, sink: store.New(),
		model: w.model, loc: rca.NewLocalizer(w.model, rca.DefaultOptions()),
	}
}

// scratchCollector starts the scratch collector the handler and Submit
// replays feed, with the live pipeline's configuration.
func (rp *replayer) scratchCollector(cfg ingest.Config) {
	rp.scratch = collector.NewWithPipeline(nil, ingest.NewPipeline(nil, cfg))
	rp.scratchH = rp.scratch.Handler()
}

func (rp *replayer) close() {
	if rp.scratch != nil {
		rp.scratch.Close()
	}
}

// collectorPost attributes one collector POST (span parent): the handler on
// a recorder, and inside it the decoder and the pipeline's Submit.
func (rp *replayer) collectorPost(op, parent int, proto string, body []byte) {
	h := rp.rec.do(op, parent, "collector", "collector.handler", true, func() {
		recorded(rp.scratchH, collectorPaths[proto], body)
	})
	var spans []*trace.Span
	var err error
	rp.rec.do(op, h, "otel", "otel.decode_"+proto, true, func() {
		spans, err = decoders[proto](body)
	})
	if err != nil {
		rp.c["otel.decode_errors"]++
	}
	rp.c["otel.spans_"+proto] += float64(len(spans))
	rp.c["otel.bytes"] += float64(len(body))
	rp.rec.do(op, h, "ingest", "ingest.submit", true, func() {
		rp.scratch.Ingest.Submit(spans)
	})
}

// storeAdd attributes the store writes behind a flush (span parent): the
// kept traces are written again, into the scratch store.
func (rp *replayer) storeAdd(op, parent int, kept []*trace.Trace) {
	spans := spansOf(kept)
	rp.rec.do(op, parent, "store", "store.add_spans", true, func() {
		rp.sink.AddSpans(spans)
	})
	rp.c["store.added_spans"] += float64(len(spans))
}

// assemble attributes the trace assembly inside a store scan (span parent):
// every stored group is assembled again from a copy, one goroutine per
// store shard as the scan does it.
func (rp *replayer) assemble(op, parent int, st *store.Store, stored []*trace.Trace) {
	groups := make([][]*trace.Span, len(stored))
	for i, tr := range stored {
		groups[i] = append([]*trace.Span(nil), tr.Spans...)
		rp.c["trace.assembled_spans"] += float64(len(tr.Spans))
	}
	rp.rec.do(op, parent, "trace", "trace.assemble", true, func() {
		var wg sync.WaitGroup
		for w := 0; w < st.Shards(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(groups); i += st.Shards() {
					if _, err := trace.Assemble(groups[i]); err != nil {
						panic(err) // the store returned it assembled a moment ago
					}
				}
			}()
		}
		wg.Wait()
	})
}

// score attributes one /score POST (span parent): the handler on a
// recorder, and inside it assembly, the batched forward and the encoder.
func (rp *replayer) score(op, parent int, ss *scoreServer, body []byte, spans []*trace.Span) {
	h := rp.rec.do(op, parent, "modelserver", "modelserver.handler", true, func() {
		recorded(ss.handler, "/models/prod/latest/score", body)
	})
	var traces []*trace.Trace
	rp.rec.do(op, h, "trace", "trace.assemble_all", true, func() {
		traces, _ = trace.AssembleAll(spans)
	})
	rp.c["trace.assembled_spans"] += float64(len(spans))
	s := rp.rec.do(op, h, "core", "core.score_batch", true, func() {
		rp.model.ScoreBatch(traces, 0)
	})
	rp.c["core.scored_spans"] += float64(len(spans))
	rp.encode(op, s, traces)
}

func (rp *replayer) encode(op, parent int, traces []*trace.Trace) {
	rp.rec.do(op, parent, "features", "features.encode", true, func() {
		for _, tr := range traces {
			rp.model.Encode(tr)
		}
	})
	for _, tr := range traces {
		rp.c["features.encoded_spans"] += float64(tr.Len())
		for _, sp := range tr.Spans {
			rp.opKeys[sp.OpKey()] = struct{}{}
		}
	}
}

// localize runs one RCA query under a span (child of parent) and queues the
// attribution of the counterfactual engine inside it for after the op.
func (rp *replayer) localize(op, parent int, tr *trace.Trace, slo float64) rca.Result {
	var res rca.Result
	l := rp.rec.do(op, parent, "rca", "rca.localize", false, func() {
		res = rp.loc.LocalizeDetailed(tr, slo)
	})
	rp.pending = append(rp.pending, func() { rp.sessionReplay(op, l, tr, res) })
	return res
}

// replayPending runs the attributions queued while the op was on the clock.
func (rp *replayer) replayPending() {
	for _, fn := range rp.pending {
		fn()
	}
	rp.pending = rp.pending[:0]
}

// sessionReplay attributes the counterfactual session inside one localize
// span. The candidate ranking is not exported, so the replay restores the
// services the query settled on, then the trace's other services, for as
// many questions as the query asked; it mirrors the row traffic, not the
// exact sets.
func (rp *replayer) sessionReplay(op, l int, tr *trace.Trace, res rca.Result) {
	cands := len(rp.loc.Candidates(tr))
	rp.c["rca.queries"]++
	rp.c["rca.candidates"] += float64(cands)
	rp.c["rca.pruned"] += float64(res.PrunedCandidates)
	if res.Normalized {
		rp.c["rca.normalized"]++
	}
	if len(res.Services) == 0 {
		return
	}
	questions := len(res.Services)
	if !res.Normalized {
		questions = min(rp.loc.Opts.MaxCandidates, cands-res.PrunedCandidates) + 1
	}
	order := append([]string(nil), res.Services...)
	for _, svc := range tr.Services() {
		if !slices.Contains(res.Services, svc) {
			order = append(order, svc)
		}
	}
	restored := map[int]bool{}
	restore := func(svc string) {
		for _, i := range affiliated(tr, svc) {
			restored[i] = true
		}
	}
	var sess *core.CounterfactualSession
	restore(order[0])
	open := rp.rec.do(op, l, "core", "core.cf_open", true, func() {
		sess = rp.model.NewCounterfactualSession(tr)
		sess.Counterfactual(restored)
	})
	rp.encode(op, open, []*trace.Trace{tr})
	for q := 1; q < questions; q++ {
		if q == questions-1 && !res.Normalized {
			// The loop gave up: its last question restores the top
			// candidate alone.
			restored = map[int]bool{}
			restore(order[0])
		} else {
			restore(order[q%len(order)])
		}
		rp.rec.do(op, l, "core", "core.cf_question", true, func() {
			sess.Counterfactual(restored)
		})
	}
	rp.c["core.cf_questions"] += float64(questions)
	rp.c["core.cf_rows"] += float64(sess.RowsUpdated())
	sess.Close()
}

// affiliated lists the spans restored with a service, by the rule of §3.5:
// its own spans, and the client spans calling into it.
func affiliated(tr *trace.Trace, svc string) []int {
	var out []int
	for i, sp := range tr.Spans {
		if sp.Service == svc {
			out = append(out, i)
			continue
		}
		if sp.Kind == trace.KindClient {
			for _, c := range tr.Children(i) {
				if tr.Spans[c].Service == svc {
					out = append(out, i)
					break
				}
			}
		}
	}
	return out
}

// analyze is Analyzer.Analyze taken apart: the same calls in the same order,
// each under a span (children of parent). The caller checks the report
// against Analyze itself, so the mirror cannot drift.
func (rp *replayer) analyze(op, parent int, w *world, anomalous []*trace.Trace) *sleuth.Report {
	report := &sleuth.Report{}
	if len(anomalous) == 0 {
		return report
	}
	an := w.analyzer
	var sets []cluster.WeightedSet
	rp.rec.do(op, parent, "cluster", "cluster.trace_sets", false, func() {
		sets = cluster.TraceSets(anomalous, an.MaxAncestorDepth)
	})
	var m *cluster.Matrix
	rp.rec.do(op, parent, "cluster", "cluster.pairwise", false, func() { m = cluster.Pairwise(sets) })
	var labels []int
	rp.rec.do(op, parent, "cluster", "cluster.hdbscan", false, func() {
		labels = cluster.HDBSCAN(m, cluster.Options{
			MinClusterSize:   an.ClusterMinSize,
			MinSamples:       an.ClusterMinSamp,
			SelectionEpsilon: an.ClusterEpsilon,
		})
	})
	var medoids map[int]int
	rp.rec.do(op, parent, "cluster", "cluster.medoids", false, func() { medoids = cluster.Medoids(m, labels) })

	members := map[int][]int{}
	for i, l := range labels {
		members[l] = append(members[l], i)
	}
	ids := make([]int, 0, len(members))
	for l := range members {
		ids = append(ids, l)
	}
	sort.Ints(ids)
	diagnose := func(l int, tr *trace.Trace, traceIDs []string) {
		res := rp.localize(op, parent, tr, w.slo(tr))
		report.Inferences++
		report.Diagnoses = append(report.Diagnoses, sleuth.Diagnosis{
			ClusterID: l, TraceIDs: traceIDs,
			Services: res.Services, Pods: res.Pods, Nodes: res.Nodes,
			PrunedCandidates: res.PrunedCandidates, Pruning: res.Pruning,
		})
	}
	for _, l := range ids {
		if l < 0 {
			for _, i := range members[l] {
				diagnose(-1, anomalous[i], []string{anomalous[i].TraceID})
			}
			continue
		}
		var traceIDs []string
		for _, i := range members[l] {
			traceIDs = append(traceIDs, anomalous[i].TraceID)
		}
		sort.Strings(traceIDs)
		diagnose(l, anomalous[medoids[l]], traceIDs)
	}

	n := float64(len(anomalous))
	rp.c["cluster.ops"]++
	rp.c["cluster.pairs"] += n * (n - 1) / 2
	rp.c["cluster.matrix_bytes"] += float64(m.Bytes())
	rp.c["cluster.clusters"] += float64(len(medoids))
	rp.c["cluster.noise"] += float64(len(members[-1]))
	rp.c["cluster.anomalous"] += n
	rp.c["cluster.inferences"] += float64(report.Inferences)
	return report
}

// heapMB is the live heap after a collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ingestStats adds one pipeline's lifetime counts to the layer counters.
func (rp *replayer) ingestStats(s ingest.Stats) {
	rp.c["ingest.spans_accepted"] += float64(s.SpansIn - s.SpansRejected - s.SpansDropped)
	rp.c["ingest.spans_rejected"] += float64(s.SpansRejected)
	rp.c["ingest.spans_dropped"] += float64(s.SpansDropped)
	rp.c["ingest.traces_kept"] += float64(s.TracesKept)
	rp.c["ingest.traces_shed"] += float64(s.TracesShed)
}

// storeStats records what the live store holds at the end of a replay and
// what it costs: the heap grown since h0, with the scratch store dropped
// first, and one OpSummaries pass (the tail sampler's baseline refresh).
func (rp *replayer) storeStats(st *store.Store, h0 float64) {
	rp.c["store.traces_held"] = float64(st.TraceCount())
	rp.c["store.spans_held"] = float64(st.SpanCount())
	rp.sink = store.New()
	rp.c["store.heap_mb"] = heapMB() - h0
	start := time.Now()
	st.OpSummaries()
	rp.c["store.op_summaries_ms"] = float64(time.Since(start)) / 1e6
}
