package main

// metricDef is one row of BENCHMARK.json: the tables below are the single
// source the benchmark prints from, and the smoke test holds BENCHMARK.json
// to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"incident_e2e", "the headline path: OTLP POST, ingest, store, window fetch, /score, cluster, localize; every serving layer does some work"},
	{"ingest_firehose", "otel+collector+ingest+store writes do nearly all the work; core, cluster and rca do none, so a decode gain shows here only"},
	{"score_storm", "modelserver+trace+features+core.ScoreBatch do all the work; bypasses otel, ingest, store, cluster and rca"},
	{"diagnose_large", "cluster at n=480 and store reads dominate; no HTTP, decode or /score, so a write-path gain that costs reads shows here"},
	{"localize_stream", "rca+core counterfactual sessions+features do all the work; the one workload a localisation change can move"},
}

// endToEnd is emitted by every workload of an untraced run. What an "op" is
// (an incident, a POST, a /score request, a window diagnosis, a query) is
// per workload; see README.md.
//
// The timings are bounded at a quarter, the widest the driver takes: on the
// shared two-core machine this was written on, ten runs of unchanged code
// spread by 2-14% of their median and two sets of ten drift by up to 15%,
// whatever the estimator, because the machine's own speed moves by that much
// from one minute to the next. README.md has the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"spans_per_s", "1/s", "higher", 0.25},
	{"correct_ratio", "ratio", "higher", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// layers are the packages whose self time the traced replay attributes,
// plus "http" for net/http and loopback time around the two handlers.
var layers = []string{"otel", "collector", "ingest", "store", "trace", "features", "core", "modelserver", "cluster", "rca", "http"}

// perLayer is emitted by every workload of a traced run; a layer a workload
// bypasses reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"otel.decode_otlp_us_per_span", "us", "lower", 0},
		{"otel.decode_zipkin_us_per_span", "us", "lower", 0},
		{"otel.decode_jaeger_us_per_span", "us", "lower", 0},
		{"otel.decode_mb_per_s", "MB/s", "higher", 0},
		{"otel.decode_errors", "count", "lower", 0},
		{"collector.handler_us_per_post", "us", "lower", 0},
		{"collector.self_us_per_post", "us", "lower", 0},
		{"collector.http_overhead_us_per_post", "us", "lower", 0},
		{"collector.non_202", "count", "lower", 0},
		{"ingest.submit_us_per_batch", "us", "lower", 0},
		{"ingest.flush_wait_ms", "ms", "lower", 0},
		{"ingest.spans_accepted", "count", "higher", 0},
		{"ingest.spans_rejected", "count", "lower", 0},
		{"ingest.spans_dropped", "count", "lower", 0},
		{"ingest.traces_kept", "count", "higher", 0},
		{"ingest.traces_shed", "count", "higher", 0},
		{"ingest.keep_ratio", "ratio", "lower", 0},
		{"ingest.queue_depth_max", "count", "lower", 0},
		{"store.add_spans_us_per_span", "us", "lower", 0},
		{"store.fetch_ms", "ms", "lower", 0},
		{"store.fetch_us_per_trace", "us", "lower", 0},
		{"store.fetch_traces_returned", "count", "higher", 0},
		{"store.op_summaries_ms", "ms", "lower", 0},
		{"store.traces_held", "count", "higher", 0},
		{"store.spans_held", "count", "higher", 0},
		{"store.heap_mb", "MiB", "lower", 0},
		{"trace.assemble_us_per_span", "us", "lower", 0},
		{"features.encode_us_per_span", "us", "lower", 0},
		{"features.embed_registry_size", "count", "lower", 0},
		{"core.score_batch_us_per_span", "us", "lower", 0},
		{"core.cf_open_us", "us", "lower", 0},
		{"core.cf_question_us", "us", "lower", 0},
		{"core.cf_rows_updated_per_question", "count", "lower", 0},
		{"core.train_s", "s", "lower", 0},
		{"core.model_load_ms", "ms", "lower", 0},
		{"modelserver.score_handler_us_per_req", "us", "lower", 0},
		{"modelserver.self_us_per_req", "us", "lower", 0},
		{"modelserver.http_overhead_us_per_req", "us", "lower", 0},
		{"modelserver.non_200", "count", "lower", 0},
		{"cluster.trace_sets_ms", "ms", "lower", 0},
		{"cluster.pairwise_ms", "ms", "lower", 0},
		{"cluster.pairwise_ns_per_pair", "ns", "lower", 0},
		{"cluster.hdbscan_ms", "ms", "lower", 0},
		{"cluster.medoids_ms", "ms", "lower", 0},
		{"cluster.matrix_mb", "MiB", "lower", 0},
		{"cluster.clusters", "count", "higher", 0},
		{"cluster.noise_traces", "count", "lower", 0},
		{"cluster.inference_reduction", "ratio", "higher", 0},
		{"rca.localize_us_per_query", "us", "lower", 0},
		{"rca.queries", "count", "lower", 0},
		{"rca.candidates_per_query", "count", "lower", 0},
		{"rca.pruned_per_query", "count", "higher", 0},
		{"rca.normalized_ratio", "ratio", "higher", 0},
		{"rca.hit_rate", "ratio", "higher", 0},
		{"loadgen.busy_share", "ratio", "lower", 0},
		{"loadgen.encode_s", "s", "lower", 0},
		{"e2e.unattributed_share", "ratio", "lower", 0},
		{"e2e.trace_overhead_ratio", "ratio", "lower", 0},
		{"e2e.failed_ratio", "ratio", "lower", 0},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_share", "ratio", "lower", 0})
	}
	return defs
}()
