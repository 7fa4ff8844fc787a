package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// diagnoseLarge is the read-path workload: a store filled in set-up holds a
// few large incident windows of a Synthetic-256 application, and one caller
// fetches a window, filters it and runs the cluster+localize analysis.
type diagnoseLarge struct {
	base
	st      *store.Store
	windows []*incident
	heapMB  float64
}

func (d *diagnoseLarge) setup(seed uint64, sc scale, outDir string) error {
	w, err := newWorld(sc.rpcsLarge, seed, sc)
	if err != nil {
		return err
	}
	d.w = w
	h0 := heapMB()
	d.st = store.New()
	// A window holds a fixed number of anomalous traces under multi-fault
	// plans (topped up from the next plan when one leaves too few requests
	// unhealthy). A few dozen clusters cannot stand for the distribution of
	// outages: over ten seeds the hit rate of four windows swings by a
	// sixth, whether the seed draws the plans or only the requests they
	// hit. The outages are therefore constants like the topology — plans
	// and faulted requests come from appSeed — and -seed draws the
	// background traffic the fetch has to scan and the filter to discard;
	// the other RCA workloads cover plan variety with 120 and 128 plans
	// each. Request IDs leave a gap between windows so that they are
	// disjoint in time.
	outages := sim.New(w.app, sim.DefaultOptions(appSeed))
	faulted := sc.windowPlans * sc.perPlan
	for k, plans := 0, 0; k < sc.windows; k++ {
		inc, err := w.newIncident(10_000+k*16*faulted, sc.windowNormal)
		if err != nil {
			return err
		}
		for len(inc.traces) < sc.windowNormal+faulted {
			if plans == 64*sc.windows*sc.windowPlans {
				return fmt.Errorf("window %d has %d/%d anomalous traces after %d fault plans", k, len(inc.traces)-sc.windowNormal, faulted, plans)
			}
			want := min(sc.perPlan, sc.windowNormal+faulted-len(inc.traces))
			if err := w.fault(outages, inc, w.plan(appSeed, plans, 3), want, true); err != nil {
				return err
			}
			plans++
		}
		d.st.AddSpans(spansOf(inc.traces))
		d.windows = append(d.windows, inc.seal())
	}
	d.heapMB = heapMB() - h0
	return nil
}

func (d *diagnoseLarge) setupCounters() counters {
	return counters{"core.train_s": d.w.trainS, "store.heap_mb": d.heapMB}
}

func (d *diagnoseLarge) close() {}

func (d *diagnoseLarge) run(b budget) runResult {
	res := runResult{blockOps: len(d.windows), tailPct: 75, clients: 1}
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		win := d.windows[i%len(d.windows)]
		t0 := time.Now()
		fetched := d.st.Traces(store.Query{MinStart: win.minStart, MaxStart: win.maxStart})
		anomalous := d.w.anomalousOf(fetched)
		report := d.w.analyzer.Analyze(anomalous)
		t1 := time.Now()

		res.samples = append(res.samples, sample{end: t1.Sub(pc.start), lat: t1.Sub(t0), wall: t1.Sub(t0), spans: win.spans})
		if i < len(d.windows) {
			res.addReport(report, win.truth)
		}
		if len(fetched) != win.count || len(anomalous) == 0 || len(report.Diagnoses) == 0 {
			res.failed++
		}
	}
	res.elapsed = time.Since(pc.start)
	return res
}

func (d *diagnoseLarge) replay(b budget, rp *replayer) {
	var all []*trace.Trace
	for _, win := range d.windows {
		all = append(all, win.traces...)
	}
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		win := d.windows[i%len(d.windows)]
		var fetched []*trace.Trace
		root := rp.rec.open(i, -1, "e2e", "e2e.op", false)
		fetch := rp.rec.do(i, root, "store", "store.fetch", false, func() {
			fetched = d.st.Traces(store.Query{MinStart: win.minStart, MaxStart: win.maxStart})
		})
		anomalous := d.w.anomalousOf(fetched)
		report := rp.analyze(i, root, d.w, anomalous)
		rp.rec.end(root)
		rp.replayPending()

		rp.c["store.fetch_returned"] += float64(len(fetched))
		rp.tally.addReport(report, win.truth)
		if len(fetched) != win.count || len(report.Diagnoses) == 0 {
			rp.c["e2e.failed_ops"]++
		}
		if !reflect.DeepEqual(report, d.w.analyzer.Analyze(anomalous)) {
			rp.c["e2e.mirror_mismatch"]++
		}
		rp.assemble(i, fetch, d.st, all)
		rp.c["e2e.ops"]++
	}
	rp.c["store.traces_held"] = float64(d.st.TraceCount())
	rp.c["store.spans_held"] = float64(d.st.SpanCount())
}
