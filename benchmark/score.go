package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"time"

	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// scoreStorm is the serving workload: two inference workers post small
// /score requests at the shipped model server as fast as it answers.
type scoreStorm struct {
	base
	ss     *scoreServer
	bodies []*scoreBody
}

const (
	scoreClients = 2
	scoreProbes  = 16 // bodies whose replies are checked bit for bit
)

// scoreBody is one pre-marshalled /score request.
type scoreBody struct {
	body   []byte
	traces []*trace.Trace // sorted by trace ID, the order the server answers in
	spans  int
}

func (s *scoreStorm) setup(seed uint64, sc scale, outDir string) error {
	w, err := newWorld(sc.rpcsSmall, seed, sc)
	if err != nil {
		return err
	}
	s.w = w
	// One faulted trace per body, from a rotating set of fault plans.
	faulted, err := w.newIncident(10_000, 0)
	if err != nil {
		return err
	}
	for k := 0; len(faulted.traces) < sc.scoreBodies; k++ {
		if err := w.fault(w.sim, faulted, w.plan(w.seed, k, 1), 32, false); err != nil {
			return err
		}
	}
	healthy, err := w.sim.Run(1_000_000, sc.scoreBodies*(tracesPerScore-1))
	if err != nil {
		return err
	}
	for i := 0; i < sc.scoreBodies; i++ {
		traces := []*trace.Trace{faulted.traces[i]}
		for _, r := range healthy[i*(tracesPerScore-1) : (i+1)*(tracesPerScore-1)] {
			traces = append(traces, r.Trace)
		}
		bodies, _ := scoreBodies(traces)
		sorted, _ := trace.AssembleAll(spansOf(traces))
		sb := &scoreBody{body: bodies[0], traces: sorted}
		for _, tr := range traces {
			sb.spans += tr.Len()
		}
		s.bodies = append(s.bodies, sb)
	}
	s.ss, err = newScoreServer(outDir, w.model)
	return err
}

func (s *scoreStorm) setupCounters() counters {
	return counters{"core.train_s": s.w.trainS, "core.model_load_ms": s.ss.loadMs}
}

func (s *scoreStorm) close() {
	if s.ss != nil {
		s.ss.close()
	}
}

var traceIDKey = []byte(`"traceId"`)

// probe posts the first bodies once more and holds each reply against a
// direct ScoreBatch on the same traces: predictions and mean loss must be
// equal to the last bit (JSON round-trips a float64 exactly).
func (s *scoreStorm) probe(p *poster, t *tally) {
	for _, sb := range s.bodies[:min(scoreProbes, len(s.bodies))] {
		durs, errs, losses := s.w.model.ScoreBatch(sb.traces, 0)
		var resp modelserver.ScoreResponse
		ok := p.post(s.ss.url, sb.body) == 200 && json.Unmarshal(p.reply.Bytes(), &resp) == nil &&
			len(resp.Results) == len(sb.traces)
		total := 0.0
		for i := range sb.traces {
			t.checked++
			total += losses[i]
			if ok && resp.Results[i].TraceID == sb.traces[i].TraceID &&
				equalBits(resp.Results[i].DurScaled, durs[i]) && equalBits(resp.Results[i].ErrProb, errs[i]) {
				t.right++
			}
		}
		t.checked++
		if ok && math.Float64bits(resp.MeanLoss) == math.Float64bits(total/float64(len(losses))) {
			t.right++
		}
	}
}

// equalBits reports whether two float slices are equal bit for bit and finite.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) || math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
			return false
		}
	}
	return true
}

func (s *scoreStorm) run(b budget) runResult {
	res := runResult{blockOps: 2 * len(s.bodies), tailPct: 99, clients: scoreClients}
	var mu sync.Mutex
	var wg sync.WaitGroup
	pc := b.begin()
	for c := 0; c < scoreClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPoster()
			defer p.close()
			var mine []sample
			failed := 0
			for {
				i, ok := pc.take()
				if !ok {
					break
				}
				sb := s.bodies[i%len(s.bodies)]
				t0 := time.Now()
				status := p.post(s.ss.url, sb.body)
				t1 := time.Now()
				mine = append(mine, sample{end: t1.Sub(pc.start), lat: t1.Sub(t0), wall: t1.Sub(t0), spans: sb.spans})
				// One result per trace; the probes check the numbers.
				if status != 200 || bytes.Count(p.reply.Bytes(), traceIDKey) != len(sb.traces) {
					failed++
				}
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(pc.start)
	p := newPoster()
	defer p.close()
	s.probe(p, &res.tally)
	if res.right != res.checked {
		res.failed++
	}
	return res
}

func (s *scoreStorm) replay(b budget, rp *replayer) {
	p := newPoster()
	defer p.close()
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		sb := s.bodies[i%len(s.bodies)]
		root := rp.rec.open(i, -1, "e2e", "e2e.op", false)
		post := rp.rec.do(i, root, "http", "http.post_score", false, func() {
			if p.post(s.ss.url, sb.body) != 200 {
				rp.c["modelserver.non_200"]++
			}
		})
		rp.rec.end(root)
		rp.score(i, post, s.ss, sb.body, spansOf(sb.traces))
		rp.c["e2e.ops"]++
	}
	var t tally
	if s.probe(p, &t); t.right != t.checked {
		rp.c["e2e.failed_ops"]++
	}
}
