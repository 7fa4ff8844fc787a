package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"time"

	"github.com/sleuth-rca/sleuth/internal/collector"
	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// incidentE2E is the headline workload: one caller takes an incident from
// its OTLP POSTs to a ranked root cause through every serving layer.
//
// The store has no retention, and a window fetch scans all of it, so an
// op's cost grows with the ops before it. The collector and store are
// therefore rotated every sc.rotation ops: latency is a sawtooth of fixed
// period, and one rotation is one block of the timings. The incidents
// themselves cycle with a longer period, so a run sees many more fault plans
// than one rotation holds.
type incidentE2E struct {
	base
	ss        *scoreServer
	incidents []*incident
	rotation  int
	encodeS   float64

	live *liveCollector
}

// liveCollector is a collector with default, lossless ingest in front of a
// fresh store, served on loopback.
type liveCollector struct {
	st   *store.Store
	coll *collector.Collector
	srv  *httptest.Server
}

func newLiveCollector(cfg ingest.Config) *liveCollector {
	st := store.New()
	coll := collector.NewWithPipeline(st, ingest.NewPipeline(st, cfg))
	return &liveCollector{st: st, coll: coll, srv: httptest.NewServer(coll.Handler())}
}

func (l *liveCollector) close() {
	l.srv.Close()
	l.coll.Close()
}

func (x *incidentE2E) setup(seed uint64, sc scale, outDir string) error {
	w, err := newWorld(sc.rpcsSmall, seed, sc)
	if err != nil {
		return err
	}
	x.w, x.rotation = w, sc.rotation
	per := sc.background + sc.faulted
	for k := 0; k < sc.incidents; k++ {
		// Request IDs leave a gap between incidents so windows are disjoint.
		inc, err := w.newIncident(10_000+k*2*per, sc.background)
		if err != nil {
			return err
		}
		if err := w.fault(w.sim, inc, w.plan(w.seed, k, 1), sc.faulted, false); err != nil {
			return err
		}
		inc.seal()
		start := time.Now()
		for i := 0; i < len(inc.traces); i += tracesPerPost {
			body, err := otel.EncodeOTLP(spansOf(inc.traces[i:min(i+tracesPerPost, len(inc.traces))]))
			if err != nil {
				return err
			}
			inc.payloads = append(inc.payloads, body)
		}
		x.encodeS += time.Since(start).Seconds()
		inc.traces = nil // the payloads are all this workload sends
		x.incidents = append(x.incidents, inc)
	}
	x.ss, err = newScoreServer(outDir, w.model)
	return err
}

func (x *incidentE2E) setupCounters() counters {
	return counters{"core.train_s": x.w.trainS, "core.model_load_ms": x.ss.loadMs, "loadgen.encode_s": x.encodeS}
}

func (x *incidentE2E) close() {
	if x.ss != nil {
		x.ss.close()
	}
}

// scoreBodies marshals the anomalous traces into /score requests of at most
// scoreChunk traces — the inference worker's side of the call.
func scoreBodies(anomalous []*trace.Trace) (bodies [][]byte, chunks [][]*trace.Trace) {
	for i := 0; i < len(anomalous); i += scoreChunk {
		chunk := anomalous[i:min(i+scoreChunk, len(anomalous))]
		body, err := json.Marshal(modelserver.ScoreRequest{Spans: spansOf(chunk)})
		if err != nil {
			panic(err) // spans of assembled traces always marshal
		}
		bodies = append(bodies, body)
		chunks = append(chunks, chunk)
	}
	return bodies, chunks
}

// scoreReplyOK reports whether a /score reply holds one finite result per trace.
func scoreReplyOK(reply []byte, traces int) bool {
	var resp modelserver.ScoreResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return false
	}
	return len(resp.Results) == traces && resp.Skipped == 0 &&
		!math.IsNaN(resp.MeanLoss) && !math.IsInf(resp.MeanLoss, 0)
}

// anomalousOf is the inference worker's filter over a fetched window.
func (w *world) anomalousOf(traces []*trace.Trace) []*trace.Trace {
	var out []*trace.Trace
	for _, tr := range traces {
		if w.analyzer.IsAnomalous(tr) {
			out = append(out, tr)
		}
	}
	return out
}

// ingestClean reports whether the pipeline took every span it was sent.
func ingestClean(s ingest.Stats, sent int64) bool {
	return s.SpansIn == sent && s.SpansRejected == 0 && s.SpansDropped == 0
}

func (x *incidentE2E) run(b budget) runResult {
	res := runResult{blockOps: x.rotation, tailPct: 90, clients: 1}
	p := newPoster()
	defer p.close()
	var sent int64
	rotate := func() {
		if x.live != nil {
			if !ingestClean(x.live.coll.Ingest.Stats(), sent) {
				res.failed++
			}
			x.live.close()
		}
		x.live, sent = newLiveCollector(ingest.DefaultConfig()), 0
	}
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		if i%x.rotation == 0 {
			rotate()
		}
		inc := x.incidents[i%len(x.incidents)]
		good := true
		url := x.live.srv.URL + collectorPaths["otlp"]
		t0 := time.Now()
		tLast := t0
		for j, body := range inc.payloads {
			if j == len(inc.payloads)-1 {
				tLast = time.Now()
			}
			good = p.post(url, body) == 202 && good
		}
		x.live.coll.Ingest.Flush()
		fetched := x.live.st.Traces(store.Query{MinStart: inc.minStart, MaxStart: inc.maxStart})
		good = good && len(fetched) == inc.count
		anomalous := x.w.anomalousOf(fetched)
		bodies, chunks := scoreBodies(anomalous)
		for k, body := range bodies {
			good = p.post(x.ss.url, body) == 200 && scoreReplyOK(p.reply.Bytes(), len(chunks[k])) && good
		}
		report := x.w.analyzer.Analyze(anomalous)
		t1 := time.Now()
		good = good && (len(anomalous) == 0 || len(report.Diagnoses) > 0)

		res.samples = append(res.samples, sample{end: t1.Sub(pc.start), lat: t1.Sub(tLast), wall: t1.Sub(t0), spans: inc.spans})
		sent += int64(inc.spans)
		if i < len(x.incidents) {
			res.addReport(report, inc.truth)
		}
		if !good {
			res.failed++
		}
	}
	res.elapsed = time.Since(pc.start)
	if x.live != nil {
		if !ingestClean(x.live.coll.Ingest.Stats(), sent) {
			res.failed++
		}
		x.live.close()
		x.live = nil
	}
	return res
}

// replay stages the same path: real POSTs and a real flush feed the live
// pipeline, the fetch, /score and the cluster+localize stages run under
// spans, and every call that hides another layer is attributed afterwards.
func (x *incidentE2E) replay(b budget, rp *replayer) {
	p := newPoster()
	defer p.close()
	rp.scratchCollector(ingest.DefaultConfig())
	h0 := heapMB()
	live := newLiveCollector(ingest.DefaultConfig())
	defer func() { live.close() }()
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		if i > 0 && i%x.rotation == 0 {
			rp.ingestStats(live.coll.Ingest.Stats())
			live.close()
			live = newLiveCollector(ingest.DefaultConfig())
		}
		inc := x.incidents[i%len(x.incidents)]
		url := live.srv.URL + collectorPaths["otlp"]
		var posts, scorePosts []int
		var fetched []*trace.Trace
		root := rp.rec.open(i, -1, "e2e", "e2e.op", false)
		for _, body := range inc.payloads {
			posts = append(posts, rp.rec.do(i, root, "http", "http.post_traces", false, func() {
				if p.post(url, body) != 202 {
					rp.c["collector.non_202"]++
				}
			}))
			rp.c.max("ingest.queue_depth_max", float64(live.coll.Ingest.QueueDepth()))
		}
		flush := rp.rec.do(i, root, "ingest", "ingest.flush", false, live.coll.Ingest.Flush)
		fetch := rp.rec.do(i, root, "store", "store.fetch", false, func() {
			fetched = live.st.Traces(store.Query{MinStart: inc.minStart, MaxStart: inc.maxStart})
		})
		anomalous := x.w.anomalousOf(fetched)
		bodies, chunks := scoreBodies(anomalous)
		for _, body := range bodies {
			scorePosts = append(scorePosts, rp.rec.do(i, root, "http", "http.post_score", false, func() {
				if p.post(x.ss.url, body) != 200 {
					rp.c["modelserver.non_200"]++
				}
			}))
		}
		report := rp.analyze(i, root, x.w, anomalous)
		rp.rec.end(root)
		rp.replayPending()

		rp.c["store.fetch_returned"] += float64(len(fetched))
		rp.tally.addReport(report, inc.truth)
		if len(fetched) != inc.count {
			rp.c["e2e.failed_ops"]++
		}
		if !reflect.DeepEqual(report, x.w.analyzer.Analyze(anomalous)) {
			rp.c["e2e.mirror_mismatch"]++
		}
		for j, body := range inc.payloads {
			rp.collectorPost(i, posts[j], "otlp", body)
		}
		rp.storeAdd(i, flush, fetched)
		rp.assemble(i, fetch, live.st, live.st.Traces(store.Query{}))
		for k, body := range bodies {
			rp.score(i, scorePosts[k], x.ss, body, spansOf(chunks[k]))
		}
		rp.c["e2e.ops"]++
	}
	rp.ingestStats(live.coll.Ingest.Stats())
	rp.storeStats(live.st, h0)
}
