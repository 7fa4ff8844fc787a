package main

import (
	"fmt"
	"time"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/rca"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// localizeStream is the localisation workload: one caller asks for the root
// cause of one anomalous Synthetic-256 trace after another, no clustering.
// The mix is that of `benchrunner -exp rca`: half the queries violate their
// SLO under a random chaos plan and usually normalise once the true root is
// restored; half come from a wide-blast plan that faults more services than
// MaxCandidates, so the candidate loop runs to exhaustion.
type localizeStream struct {
	base
	queries []query
}

type query struct {
	tr    *trace.Trace
	truth []string
}

func (l *localizeStream) setup(seed uint64, sc scale, outDir string) error {
	w, err := newWorld(sc.rpcsLarge, seed, sc)
	if err != nil {
		return err
	}
	l.w = w
	half := sc.queries / 2
	chaosQ, err := w.newIncident(10_000, 0)
	if err != nil {
		return err
	}
	for k := 0; len(chaosQ.traces) < half; k++ {
		if k == 16*sc.queries {
			return fmt.Errorf("only %d/%d SLO-violating queries after %d fault plans", len(chaosQ.traces), half, k)
		}
		want := min(sc.queriesPerPlan, half-len(chaosQ.traces))
		if err := w.fault(w.sim, chaosQ, w.plan(w.seed, k, 1), want, true); err != nil {
			return err
		}
	}
	// The wide-blast plan: a CPU fault on every other service, or on enough
	// of them to outnumber MaxCandidates.
	nSvc := len(w.app.Services)
	want := max(nSvc/2, rca.DefaultOptions().MaxCandidates+4)
	step := max(nSvc/want, 1)
	var faults []chaos.Fault
	for svc := 0; svc < nSvc && len(faults) < want; svc += step {
		faults = append(faults, chaos.Fault{
			Type: chaos.FaultCPU, Level: chaos.LevelContainer,
			Target: w.app.Services[svc].Name, SlowFactor: 3, ErrorProb: 0.9,
		})
	}
	wideQ, err := w.newIncident(5_000_000, 0)
	if err != nil {
		return err
	}
	if err := w.fault(w.sim, wideQ, chaos.NewPlan(w.app, faults...), sc.queries-half, true); err != nil {
		return err
	}
	if len(wideQ.traces) < sc.queries-half {
		return fmt.Errorf("only %d/%d wide-blast queries", len(wideQ.traces), sc.queries-half)
	}
	// Interleave the two halves so any prefix of the stream has the mix.
	for i := range wideQ.traces {
		if i < len(chaosQ.traces) {
			l.queries = append(l.queries, query{chaosQ.traces[i], chaosQ.truth[chaosQ.traces[i].TraceID]})
		}
		l.queries = append(l.queries, query{wideQ.traces[i], wideQ.truth[wideQ.traces[i].TraceID]})
	}
	return nil
}

func (l *localizeStream) setupCounters() counters { return counters{"core.train_s": l.w.trainS} }

func (l *localizeStream) close() {}

func (l *localizeStream) run(b budget) runResult {
	res := runResult{blockOps: len(l.queries), tailPct: 90, clients: 1}
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		q := l.queries[i%len(l.queries)]
		t0 := time.Now()
		services := l.w.analyzer.Localize(q.tr)
		t1 := time.Now()

		res.samples = append(res.samples, sample{end: t1.Sub(pc.start), lat: t1.Sub(t0), wall: t1.Sub(t0), spans: q.tr.Len()})
		if i < len(l.queries) {
			res.add(services, q.truth)
		}
		if len(services) == 0 {
			res.failed++
		}
	}
	res.elapsed = time.Since(pc.start)
	return res
}

func (l *localizeStream) replay(b budget, rp *replayer) {
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		q := l.queries[i%len(l.queries)]
		root := rp.rec.open(i, -1, "e2e", "e2e.op", false)
		res := rp.localize(i, root, q.tr, l.w.slo(q.tr))
		rp.rec.end(root)
		rp.replayPending()
		rp.tally.add(res.Services, q.truth)
		if len(res.Services) == 0 {
			rp.c["e2e.failed_ops"]++
		}
		rp.c["e2e.ops"]++
	}
}
