package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	sleuth "github.com/sleuth-rca/sleuth"
	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/core"
	"github.com/sleuth-rca/sleuth/internal/modelserver"
	"github.com/sleuth-rca/sleuth/internal/sim"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// appSeed fixes the deployment under diagnosis: the application, and the
// model trained on its normal traffic. The Synthetic-N generator's trace size
// swings ±12% with its seed (40.8 to 52.2 spans per trace at N=64), and the
// trained weights steer how many counterfactual questions a localisation
// asks; either moves a timing by more than any bound here. Both are
// therefore constants of the benchmark, and -seed drives what is measured:
// the traffic and the faults.
const appSeed = 1

// scale sizes every workload. fullScale is what the driver measures; the
// smoke tests run toyScale.
type scale struct {
	normalTraces, trainTraces, epochs int

	// incident_e2e: distinct incidents, ops per store rotation, traces per
	// incident.
	incidents, rotation, background, faulted int
	// ingest_firehose: distinct traces in the replayed corpus.
	corpusTraces int
	// score_storm: distinct request bodies.
	scoreBodies int
	// diagnose_large: incident windows held by the store, and per window the
	// background traces, the fault plans and the anomalous traces wanted
	// from each plan.
	windows, windowNormal, windowPlans, perPlan int
	// localize_stream: distinct queries, and how many one fault plan may
	// contribute.
	queries, queriesPerPlan int

	rpcsSmall, rpcsLarge int
}

var fullScale = scale{
	normalTraces: 400, trainTraces: 200, epochs: 5,
	incidents: 120, rotation: 16, background: 64, faulted: 32,
	corpusTraces: 2048,
	scoreBodies:  256,
	windows:      4, windowNormal: 32, windowPlans: 3, perPlan: 160,
	queries: 256, queriesPerPlan: 2,
	rpcsSmall: 64, rpcsLarge: 256,
}

var toyScale = scale{
	normalTraces: 60, trainTraces: 24, epochs: 1,
	incidents: 3, rotation: 2, background: 16, faulted: 8,
	corpusTraces: 64,
	scoreBodies:  8,
	windows:      2, windowNormal: 8, windowPlans: 1, perPlan: 24,
	queries: 8, queriesPerPlan: 2,
	rpcsSmall: 16, rpcsLarge: 16,
}

const (
	tracesPerPost  = 8  // traces per collector POST
	scoreChunk     = 16 // most traces per /score request on the incident path
	tracesPerScore = 4  // traces per score_storm request, 3 normal : 1 faulted
)

// world is the part of set-up every workload shares: the application, a
// model trained on its normal traffic with the shipped settings, and the
// seeded simulator the measured traffic comes from.
type world struct {
	app      *synth.App
	sim      *sim.Simulator // seeded by -seed
	normal   []*trace.Trace // the fixed corpus behind the model, its normals and the SLOs
	model    *core.Model
	analyzer *sleuth.Analyzer
	seed     uint64
	trainS   float64
}

func newWorld(rpcs int, seed uint64, sc scale) (*world, error) {
	app := synth.Synthetic(rpcs, appSeed)
	res, err := sim.New(app, sim.DefaultOptions(appSeed)).Run(1, sc.normalTraces)
	if err != nil {
		return nil, fmt.Errorf("simulating normal traffic: %w", err)
	}
	normal := sim.Traces(res)
	cfg := sleuth.DefaultTrainConfig()
	cfg.Epochs, cfg.BatchSize, cfg.Seed = sc.epochs, 32, appSeed
	start := time.Now()
	model, err := sleuth.Train(normal[:sc.trainTraces], cfg)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	trainS := time.Since(start).Seconds()
	model.SetNormals(normal)
	an := sleuth.NewAnalyzer(model)
	an.SetSLOs(sleuth.SLOs(normal))
	return &world{
		app: app, sim: sim.New(app, sim.DefaultOptions(seed)), normal: normal,
		model: model, analyzer: an, seed: seed, trainS: trainS,
	}, nil
}

// slo is the latency objective Analyzer applies to tr (its sloFor is not
// exported).
func (w *world) slo(tr *trace.Trace) float64 {
	if v, ok := w.analyzer.SLO[tr.Spans[tr.Roots()[0]].OpKey()]; ok {
		return v
	}
	return w.analyzer.GlobalSLO
}

// plan draws the k-th fault plan of a seed with at least minFaults faults.
func (w *world) plan(seed uint64, k, minFaults int) *chaos.Plan {
	p := chaos.DefaultPlanParams()
	p.MinFaults = minFaults
	return chaos.GeneratePlan(w.app, p, xrand.New(seed*1_000_003+uint64(k)))
}

// incident is one outage window: background traffic plus requests simulated
// under fault plans, with the simulator's ground truth. Build one with
// newIncident, any number of fault calls, then seal.
type incident struct {
	traces []*trace.Trace // nil once encoded, on the paths that only post payloads
	count  int            // number of traces
	// truth maps a faulted trace's ID to its ground-truth root-cause services.
	truth              map[string][]string
	minStart, maxStart int64 // root start times bounding the window (µs)
	spans              int
	payloads           [][]byte // OTLP, tracesPerPost traces each
	next               int      // the next request ID
}

// newIncident simulates background fault-free requests with request IDs from
// firstID; windows with disjoint ID ranges do not overlap in time.
func (w *world) newIncident(firstID, background int) (*incident, error) {
	res, err := w.sim.Run(firstID, background)
	if err != nil {
		return nil, err
	}
	return &incident{traces: sim.Traces(res), truth: map[string][]string{}, next: firstID + background}, nil
}

// fault appends up to want requests that s simulates under plan. With
// anomalousOnly it keeps only requests the analyzer flags — a fault on a
// service the request never reaches leaves it healthy — and gives up on the
// plan after 4×want requests.
func (w *world) fault(s *sim.Simulator, inc *incident, plan *chaos.Plan, want int, anomalousOnly bool) error {
	for tries, kept := 0, 0; kept < want && tries < 4*want; tries++ {
		sample, err := s.SimulateWithTruth(inc.next, plan)
		inc.next++
		if err != nil {
			return err
		}
		tr := sample.Result.Trace
		if anomalousOnly && !w.analyzer.IsAnomalous(tr) {
			continue
		}
		kept++
		inc.traces = append(inc.traces, tr)
		if len(sample.RootServices) > 0 {
			inc.truth[tr.TraceID] = sample.RootServices
		}
	}
	return nil
}

// seal fixes the window's bounds and counts once its traces are in.
func (inc *incident) seal() *incident {
	inc.minStart, inc.maxStart = rootStart(inc.traces[0]), rootStart(inc.traces[0])
	for _, tr := range inc.traces {
		s := rootStart(tr)
		inc.minStart, inc.maxStart = min(inc.minStart, s), max(inc.maxStart, s)
		inc.spans += tr.Len()
	}
	inc.count = len(inc.traces)
	return inc
}

func rootStart(tr *trace.Trace) int64 { return tr.Spans[tr.Roots()[0]].Start }

// spansOf flattens traces into one span list.
func spansOf(traces []*trace.Trace) []*trace.Span {
	var out []*trace.Span
	for _, tr := range traces {
		out = append(out, tr.Spans...)
	}
	return out
}

// tally counts RCA verdicts against ground truth: a diagnosis is right when
// it names at least one true root-cause service.
type tally struct{ checked, right int }

func (t *tally) add(predicted, truth []string) {
	if len(truth) == 0 {
		return
	}
	t.checked++
	for _, p := range predicted {
		i := sort.SearchStrings(truth, p)
		if i < len(truth) && truth[i] == p {
			t.right++
			return
		}
	}
}

// addReport tallies every diagnosed trace of a report that has ground truth.
func (t *tally) addReport(rep *sleuth.Report, truth map[string][]string) {
	for _, d := range rep.Diagnoses {
		for _, id := range d.TraceIDs {
			t.add(d.Services, truth[id])
		}
	}
}

// scoreServer is an in-process model server holding the world's model as
// prod@1, configured as shipped (ServeConfig{}).
type scoreServer struct {
	dir     string
	handler http.Handler
	srv     *httptest.Server
	url     string  // the /score endpoint
	loadMs  float64 // one load of the published model from disk
}

func newScoreServer(outDir string, m *core.Model) (*scoreServer, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "registry-")
	if err != nil {
		return nil, err
	}
	reg, err := modelserver.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, err := reg.Publish("prod", m, "sleuthbench", nil); err != nil {
		return nil, err
	}
	start := time.Now()
	if _, _, err := reg.Latest("prod"); err != nil {
		return nil, err
	}
	loadMs := float64(time.Since(start)) / 1e6
	h := (&modelserver.Server{Registry: reg}).Handler()
	srv := httptest.NewServer(h)
	return &scoreServer{dir: dir, handler: h, srv: srv, url: srv.URL + "/models/prod/latest/score", loadMs: loadMs}, nil
}

func (s *scoreServer) close() {
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// poster is one closed-loop HTTP caller: it sends the next request only
// after reading the whole reply to the previous one.
type poster struct {
	client *http.Client
	reply  bytes.Buffer
}

func newPoster() *poster {
	return &poster{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

// post sends body and returns the status; the reply is left in p.reply. A
// transport error reads as status 0.
func (p *poster) post(url string, body []byte) int {
	resp, err := p.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	p.reply.Reset()
	if _, err := io.Copy(&p.reply, resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

func (p *poster) close() { p.client.CloseIdleConnections() }

// recorded runs handler on an in-memory request, the way the traced replay
// measures a handler without the network around it.
func recorded(h http.Handler, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code
}
