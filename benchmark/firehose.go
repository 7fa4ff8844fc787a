package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/sleuth-rca/sleuth/internal/ingest"
	"github.com/sleuth-rca/sleuth/internal/otel"
	"github.com/sleuth-rca/sleuth/internal/store"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

// firehose is the write-path workload: two connections replay an encoded
// corpus at the collector in all three protocols, with the tail sampler on.
// Trace IDs are made unique per pass by patching their numeric field in
// place, so the generator does no encoding while the clock runs.
type firehose struct {
	base
	payloads []*payload
	baseline []store.OpSummary // the sampler's latency baseline, from normal traffic
	cfg      ingest.Config
	encodeS  float64
}

const (
	firehoseClients = 2
	// idStride separates the trace IDs of successive passes; corpus request
	// IDs stay below it, and 8 digits leave room for 1999 passes.
	idStride = 50_000
	idDigits = 8 // sim formats a trace ID as "<app>-%08d"
	// legPasses is how many passes of the corpus one collector takes before
	// the next replaces it.
	legPasses = 2
)

// payload is one encoded POST body with the places its trace IDs sit.
type payload struct {
	proto   string
	body    []byte
	offsets []int // start of each 8-digit request number in body
	ids     []int // the number encoded at that offset originally
	traces  []*trace.Trace
	spans   int
	errors  int // traces carrying an error span
}

// patch rewrites every trace ID in the body for the given pass.
func (p *payload) patch(pass int) {
	for k, off := range p.offsets {
		n := p.ids[k] + pass*idStride
		for d := idDigits - 1; d >= 0; d-- {
			p.body[off+d] = byte('0' + n%10)
			n /= 10
		}
	}
}

// encodeJaeger is otel.EncodeJaeger with the traces in the order given: the
// encoder walks a map of traces, so it is called once per trace and the
// one-trace documents are spliced into one.
func encodeJaeger(traces []*trace.Trace) ([]byte, error) {
	const head, tail = `{"data":[`, `]}`
	body := []byte(head)
	for i, tr := range traces {
		doc, err := otel.EncodeJaeger(tr.Spans)
		if err != nil {
			return nil, err
		}
		if !bytes.HasPrefix(doc, []byte(head)) || !bytes.HasSuffix(doc, []byte(tail)) {
			return nil, fmt.Errorf("Jaeger document does not read %s…%s", head, tail)
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, doc[len(head):len(doc)-len(tail)]...)
	}
	return append(body, tail...), nil
}

func newPayload(app, proto string, traces []*trace.Trace) (*payload, error) {
	var body []byte
	var err error
	switch proto {
	case "otlp":
		body, err = otel.EncodeOTLP(spansOf(traces))
	case "zipkin":
		body, err = otel.EncodeZipkin(spansOf(traces))
	case "jaeger":
		body, err = encodeJaeger(traces)
	}
	if err != nil {
		return nil, err
	}
	p := &payload{proto: proto, body: body, traces: traces}
	prefix := []byte(app + "-")
	for at := 0; ; {
		i := bytes.Index(body[at:], prefix)
		if i < 0 {
			break
		}
		off := at + i + len(prefix)
		n := 0
		for _, c := range body[off : off+idDigits] {
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("trace ID at byte %d of a %s payload is not %d digits", off, proto, idDigits)
			}
			n = n*10 + int(c-'0')
		}
		p.offsets, p.ids = append(p.offsets, off), append(p.ids, n)
		at = off + idDigits
	}
	for _, tr := range traces {
		p.spans += tr.Len()
		if tr.HasError() {
			p.errors++
		}
	}
	return p, nil
}

func (f *firehose) setup(seed uint64, sc scale, outDir string) error {
	w, err := newWorld(sc.rpcsSmall, seed, sc)
	if err != nil {
		return err
	}
	f.w = w
	// 2% of the corpus are error traces, drawn from faulted requests.
	wantErr := max(1, sc.corpusTraces/50)
	res, err := w.sim.Run(10_000, sc.corpusTraces-wantErr)
	if err != nil {
		return err
	}
	var corpus, errored []*trace.Trace
	for _, r := range res {
		corpus = append(corpus, r.Trace)
	}
	faulted, err := w.newIncident(20_000, 0)
	if err != nil {
		return err
	}
	for k := 0; len(errored) < wantErr; k++ {
		if k == 64 {
			return fmt.Errorf("only %d/%d error traces after 64 fault plans", len(errored), wantErr)
		}
		seen := len(faulted.traces)
		if err := w.fault(w.sim, faulted, w.plan(w.seed, k, 2), 64, false); err != nil {
			return err
		}
		for _, tr := range faulted.traces[seen:] {
			if tr.HasError() && len(errored) < wantErr {
				errored = append(errored, tr)
			}
		}
	}
	// Spread the error traces evenly through the corpus.
	every := len(corpus) / len(errored)
	var mixed []*trace.Trace
	for i, tr := range corpus {
		mixed = append(mixed, tr)
		if (i+1)%every == 0 && len(errored) > 0 {
			mixed, errored = append(mixed, errored[0]), errored[1:]
		}
	}
	// Two OTLP posts, one Zipkin, one Jaeger, repeating.
	protos := []string{"otlp", "zipkin", "otlp", "jaeger"}
	start := time.Now()
	for i := 0; i+tracesPerPost <= len(mixed); i += tracesPerPost {
		p, err := newPayload(w.app.Name, protos[len(f.payloads)%len(protos)], mixed[i:i+tracesPerPost])
		if err != nil {
			return err
		}
		f.payloads = append(f.payloads, p)
	}
	f.encodeS = time.Since(start).Seconds()

	scratch := store.New()
	scratch.AddSpans(spansOf(w.normal))
	f.baseline = scratch.OpSummaries()
	f.cfg = ingest.DefaultConfig()
	f.cfg.SampleRate = 0.1
	return nil
}

func (f *firehose) setupCounters() counters {
	return counters{"core.train_s": f.w.trainS, "loadgen.encode_s": f.encodeS}
}

func (f *firehose) close() {}

// newLive starts a collector with the tail sampler armed the way a
// long-running one is: keep 10% of healthy traces, with a latency baseline.
func (f *firehose) newLive() *liveCollector {
	live := newLiveCollector(f.cfg)
	live.coll.Ingest.Sampler().SetBaselineFromSummaries(f.baseline)
	return live
}

// firehoseSent is what the clients of one phase sent, for the end checks.
type firehoseSent struct{ spans, traces, errors int64 }

func (s *firehoseSent) add(p *payload) {
	s.merge(firehoseSent{int64(p.spans), int64(len(p.traces)), int64(p.errors)})
}

func (s *firehoseSent) merge(o firehoseSent) {
	s.spans, s.traces, s.errors = s.spans+o.spans, s.traces+o.traces, s.errors+o.errors
}

// verify holds the pipeline's and the store's books against what was sent:
// every span taken, none rejected or dropped, every trace kept or shed,
// every error trace kept, and the store holding exactly what was kept.
func (s *firehoseSent) verify(live *liveCollector) bool {
	st := live.coll.Ingest.Stats()
	return ingestClean(st, s.spans) &&
		st.TracesKept+st.TracesShed == s.traces &&
		st.SpansWritten+st.SpansShed == s.spans &&
		st.KeptError == s.errors &&
		int64(live.st.TraceCount()) == st.TracesKept &&
		int64(live.st.SpanCount()) == st.SpansWritten
}

func (f *firehose) run(b budget) runResult {
	res := runResult{blockOps: legPasses * len(f.payloads), tailPct: 99, clients: firehoseClients}
	pc := b.begin()
	for !pc.spent() {
		f.leg(pc, &res)
	}
	res.elapsed = time.Since(pc.start)
	return res
}

// leg posts legPasses passes of the corpus at a fresh collector, flushes it
// and holds its books against what was sent. The store has no retention, so
// a collector kept for the whole run would hold memory in proportion to the
// run's throughput; a leg lasts a few TTL windows, long enough for the
// pipeline's sweeps to overlap with the posts as they do in steady state.
func (f *firehose) leg(pc *pacer, res *runResult) {
	live := f.newLive()
	defer live.close()
	var mu sync.Mutex
	var sent firehoseSent
	var wg sync.WaitGroup
	for c := 0; c < firehoseClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := newPoster()
			defer p.close()
			var samples []sample
			var mine firehoseSent
			var busy time.Duration
			failed := 0
			// Client c owns payloads c, c+2, …, so no two clients patch
			// the same buffer; n counts this client's posts.
			own := (len(f.payloads) - c + firehoseClients - 1) / firehoseClients
			for n := 0; n < legPasses*own; n++ {
				if _, ok := pc.take(); !ok {
					break
				}
				pl := f.payloads[c+n%own*firehoseClients]
				t0 := time.Now()
				pl.patch(n / own)
				t1 := time.Now()
				status := p.post(live.srv.URL+collectorPaths[pl.proto], pl.body)
				t2 := time.Now()
				if status != 202 {
					failed++
				}
				mine.add(pl)
				samples = append(samples, sample{end: t2.Sub(pc.start), lat: t2.Sub(t1), wall: t2.Sub(t0), spans: pl.spans})
				busy += t1.Sub(t0)
			}
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.failed += failed
			res.busy += busy
			sent.merge(mine)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	live.coll.Ingest.Flush()
	st := live.coll.Ingest.Stats()
	res.checked += int(sent.spans)
	res.right += int(st.SpansWritten + st.SpansShed)
	if !sent.verify(live) {
		res.failed++
	}
}

// replay posts serially and flushes after every POST, which makes the
// pipeline's background work (concentrate, sample, write) part of the op's
// wall time; the timed run lets the TTL sweeps do that in bulk.
func (f *firehose) replay(b budget, rp *replayer) {
	p := newPoster()
	defer p.close()
	rp.scratchCollector(f.cfg)
	h0 := heapMB()
	live := f.newLive()
	defer live.close()
	var sent firehoseSent
	pc := b.begin()
	for {
		i, ok := pc.take()
		if !ok {
			break
		}
		pl := f.payloads[i%len(f.payloads)]
		pl.patch(i / len(f.payloads))
		root := rp.rec.open(i, -1, "e2e", "e2e.op", false)
		post := rp.rec.do(i, root, "http", "http.post_traces", false, func() {
			if p.post(live.srv.URL+collectorPaths[pl.proto], pl.body) != 202 {
				rp.c["collector.non_202"]++
			}
		})
		rp.c.max("ingest.queue_depth_max", float64(live.coll.Ingest.QueueDepth()))
		flush := rp.rec.do(i, root, "ingest", "ingest.flush", false, live.coll.Ingest.Flush)
		rp.rec.end(root)
		sent.add(pl)

		rp.collectorPost(i, post, pl.proto, pl.body)
		rp.storeAdd(i, flush, live.st.Traces(store.Query{TraceIDs: patchedIDs(f.w.app.Name, pl, i/len(f.payloads))}))
		rp.c["e2e.ops"]++
	}
	if !sent.verify(live) {
		rp.c["e2e.failed_ops"]++
	}
	rp.ingestStats(live.coll.Ingest.Stats())
	rp.storeStats(live.st, h0)
}

// patchedIDs lists the trace IDs a payload carries on the given pass.
func patchedIDs(app string, p *payload, pass int) []string {
	seen := map[int]bool{}
	var out []string
	for _, n := range p.ids {
		if !seen[n] {
			seen[n] = true
			out = append(out, fmt.Sprintf("%s-%0*d", app, idDigits, n+pass*idStride))
		}
	}
	return out
}
