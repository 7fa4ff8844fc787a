package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// toy is a run short enough for the race detector: a fixed number of ops
// at toyScale.
func toy(workload string, seed uint64, traced bool) options {
	return options{workload: workload, seed: seed, ops: 8, trace: traced, sc: toyScale}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the benchmark prints
// from, so the file the driver reads cannot drift from the code.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("workloads differ from workloadDefs:\n%v\n%v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from endToEnd:\n%v\n%v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from perLayer:\n%v\n%v", file.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// checkResult asserts a result carries exactly the metrics of defs, each
// once with its unit, and that every correctness check passed.
func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d listed", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: emitted=%t unit=%q want %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced. A traced
// run is correct only if the staged cluster+localize replay produced the
// report Analyzer.Analyze does, so this also holds the mirror to the code.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res, err := measure(toy(w.Name, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v; an end-to-end metric is never 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			res, err = measure(toy(w.Name, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if _, err := os.Stat("out/" + w.Name + ".trace.json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// countMetrics are the per-layer metrics that count work rather than time
// it: with a fixed number of ops they must repeat exactly.
var countMetrics = []string{
	"ingest.spans_accepted", "ingest.spans_rejected", "ingest.spans_dropped", "ingest.traces_kept", "ingest.traces_shed",
	"store.fetch_traces_returned", "store.traces_held", "store.spans_held",
	"cluster.clusters", "cluster.noise_traces", "cluster.inference_reduction",
	"rca.queries", "rca.candidates_per_query", "rca.pruned_per_query", "rca.normalized_ratio", "rca.hit_rate",
	"core.cf_rows_updated_per_question", "features.embed_registry_size",
}

// TestSeed checks what a seed pins: the generated payloads byte for byte,
// the RCA verdicts, and every count of the traced replay; and that the
// held-out seed 2 runs clean.
func TestSeed(t *testing.T) {
	payloads := func(seed uint64) [][]byte {
		var out [][]byte
		x, f := &incidentE2E{}, &firehose{}
		for _, w := range []workload{x, f} {
			if err := w.setup(seed, toyScale, outDir); err != nil {
				t.Fatal(err)
			}
			defer w.close()
		}
		for _, inc := range x.incidents {
			out = append(out, inc.payloads...)
		}
		for _, p := range f.payloads {
			out = append(out, p.body)
		}
		return out
	}
	a, b, c := payloads(1), payloads(1), payloads(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 generated different payloads twice")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 generated the same payloads")
	}

	for _, name := range []string{"incident_e2e", "ingest_firehose", "diagnose_large", "localize_stream"} {
		t.Run(name, func(t *testing.T) {
			var first result
			for i := 0; i < 2; i++ {
				e2e, err := measure(toy(name, 1, false))
				if err != nil {
					t.Fatal(err)
				}
				layers, err := measure(toy(name, 1, true))
				if err != nil {
					t.Fatal(err)
				}
				layers.Metrics["correct_ratio"] = e2e.Metrics["correct_ratio"]
				if i == 0 {
					first = layers
					continue
				}
				for _, m := range append([]string{"correct_ratio"}, countMetrics...) {
					if first.Metrics[m].Value != layers.Metrics[m].Value {
						t.Errorf("%s: %v then %v on the same seed", m, first.Metrics[m].Value, layers.Metrics[m].Value)
					}
				}
			}
			for _, traced := range []bool{false, true} {
				res, err := measure(toy(name, 2, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("seed 2, traced=%t: failed %d of %d", traced, res.Failed, res.Attempted)
				}
			}
		})
	}
}

func TestPinned(t *testing.T) {
	if err := pinned(); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	t.Setenv("SLEUTH_SERVE_BATCH", "8")
	if err := pinned(); err == nil {
		t.Fatal("SLEUTH_SERVE_BATCH=8 accepted")
	}
}
