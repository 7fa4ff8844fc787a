package sim

import (
	"fmt"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
)

func newSim(t *testing.T, nRPC int, seed uint64) *Simulator {
	t.Helper()
	return New(synth.Synthetic(nRPC, seed), DefaultOptions(seed))
}

func TestSimulateRequestDeterministic(t *testing.T) {
	s := newSim(t, 16, 1)
	a, err := s.SimulateRequest(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SimulateRequest(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("replay differs: %d/%d vs %d/%d", a.Duration, a.Trace.Len(), b.Duration, b.Trace.Len())
	}
	for i := range a.Trace.Spans {
		x, y := a.Trace.Spans[i], b.Trace.Spans[i]
		if x.SpanID != y.SpanID || x.Start != y.Start || x.End != y.End ||
			x.Error != y.Error || x.Service != y.Service || x.Kind != y.Kind {
			t.Fatalf("span %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestTraceStructureMatchesFlow(t *testing.T) {
	app := synth.Synthetic(16, 2)
	s := New(app, DefaultOptions(2))
	// Find a request served by the full flow (all 16 calls → 31 spans,
	// minus async producer extras; async producers add one extra span).
	for id := 0; id < 50; id++ {
		res, err := s.SimulateRequest(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.FlowIndex != 0 {
			continue
		}
		tr := res.Trace
		// Count async producer spans to predict total span count:
		// sync child → client+server; async child → producer+consumer;
		// root → server. So total = 2·calls - 1 always.
		want := 2*app.Flows[0].NumCalls() - 1
		if tr.Len() != want {
			t.Fatalf("full-flow trace has %d spans, want %d", tr.Len(), want)
		}
		if len(tr.Roots()) != 1 {
			t.Fatalf("trace has %d roots", len(tr.Roots()))
		}
		root := tr.Spans[tr.Roots()[0]]
		if root.Kind != trace.KindServer {
			t.Fatalf("root kind = %s", root.Kind)
		}
		if root.Duration() != res.Duration {
			t.Fatalf("duration mismatch: %d vs %d", root.Duration(), res.Duration)
		}
		return
	}
	t.Fatal("no full-flow request in 50 tries")
}

func TestSpanKindsAndInstances(t *testing.T) {
	s := newSim(t, 64, 3)
	res, err := s.SimulateRequest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Trace.Spans {
		if !sp.Kind.Valid() {
			t.Fatalf("invalid span kind %q", sp.Kind)
		}
		if sp.Pod == "" || sp.Node == "" {
			t.Fatalf("span missing instance info: %+v", sp)
		}
		if sp.End < sp.Start {
			t.Fatalf("span ends before start: %+v", sp)
		}
		if sp.Service == "" || sp.Name == "" {
			t.Fatalf("span missing identity: %+v", sp)
		}
	}
}

func TestClientWrapsServer(t *testing.T) {
	s := newSim(t, 16, 4)
	res, err := s.SimulateRequest(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	for i, sp := range tr.Spans {
		if sp.Kind != trace.KindServer || tr.Parent(i) < 0 {
			continue
		}
		parent := tr.Spans[tr.Parent(i)]
		if parent.Kind != trace.KindClient {
			continue
		}
		if sp.Start < parent.Start {
			t.Fatalf("server starts before client: %+v / %+v", parent, sp)
		}
		// Server may end after the client only when the client timed out.
		if sp.End > parent.End && !parent.Error {
			t.Fatalf("server outlives client without timeout error")
		}
	}
}

func TestCPUFaultSlowsTargetService(t *testing.T) {
	app := synth.Synthetic(16, 5)
	s := New(app, DefaultOptions(5))
	svc := app.ServiceAtCallDepth(1)
	if svc < 0 {
		t.Fatal("no candidate service")
	}
	// Cover every kernel family so the fault bites regardless of which
	// kernel types the generator assigned to the service.
	name := app.Services[svc].Name
	plan := chaos.NewPlan(app,
		chaos.Fault{Type: chaos.FaultCPU, Level: chaos.LevelContainer, Target: name, SlowFactor: 50},
		chaos.Fault{Type: chaos.FaultMemory, Level: chaos.LevelContainer, Target: name, SlowFactor: 50},
		chaos.Fault{Type: chaos.FaultDisk, Level: chaos.LevelContainer, Target: name, SlowFactor: 50},
	)
	inj := chaos.NewInjector(app, plan)
	slower, faster, touched := 0, 0, 0
	for id := 0; id < 60; id++ {
		base, err := s.SimulateRequest(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := s.SimulateRequest(id, inj)
		if err != nil {
			t.Fatal(err)
		}
		// Replay alignment: the faulted run must never be faster.
		if faulted.Duration < base.Duration {
			faster++
		}
		inTrace := false
		for _, sp := range base.Trace.Spans {
			if sp.Service == name {
				inTrace = true
			}
		}
		if !inTrace {
			continue
		}
		touched++
		if faulted.Duration > base.Duration*2 {
			slower++
		}
	}
	if faster > 0 {
		t.Fatalf("faulted run faster than baseline %d times (replay misaligned)", faster)
	}
	if touched == 0 {
		t.Fatal("no request routed through the faulted service")
	}
	if slower == 0 {
		t.Fatalf("50x fault never materially slowed any of %d affected requests", touched)
	}
}

func TestNetworkFaultCausesErrorsAndLatency(t *testing.T) {
	app := synth.Synthetic(16, 6)
	s := New(app, DefaultOptions(6))
	svc := app.ServiceAtCallDepth(1)
	plan := chaos.NewPlan(app, chaos.Fault{
		Type: chaos.FaultNetwork, Level: chaos.LevelContainer,
		Target: app.Services[svc].Name, NetLatencyMicros: 400_000, ErrorProb: 0.8,
	})
	inj := chaos.NewInjector(app, plan)
	errs := 0
	for id := 0; id < 40; id++ {
		res, err := s.SimulateRequest(id, inj)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errored {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("80% network error fault produced no errors in 40 requests")
	}
}

func TestErrorPropagatesToRoot(t *testing.T) {
	app := synth.Synthetic(16, 7)
	s := New(app, DefaultOptions(7))
	svc := app.ServiceAtCallDepth(1)
	plan := chaos.NewPlan(app, chaos.Fault{
		Type: chaos.FaultCPU, Level: chaos.LevelContainer,
		Target: app.Services[svc].Name, SlowFactor: 5, ErrorProb: 0.95,
	})
	inj := chaos.NewInjector(app, plan)
	for id := 0; id < 60; id++ {
		res, err := s.SimulateRequest(id, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Errored {
			continue
		}
		tr := res.Trace
		// If any span errors, the error must propagate to its ancestors
		// up to the root (synchronous chains).
		hasFaultedSvc := false
		for _, sp := range tr.Spans {
			if sp.Service == app.Services[svc].Name && sp.Error {
				hasFaultedSvc = true
			}
		}
		if !hasFaultedSvc {
			continue
		}
		root := tr.Spans[tr.Roots()[0]]
		if !root.Error {
			// Only acceptable if the erroring span sits behind an async
			// boundary; check whether any sync ancestor chain carries it.
			continue
		}
		return // found a propagated error, done
	}
	t.Fatal("no propagated error found in 60 requests with 95% fault")
}

func TestSimulateWithTruthIdentifiesInjectedService(t *testing.T) {
	app := synth.Synthetic(16, 8)
	s := New(app, DefaultOptions(8))
	svc := app.ServiceAtCallDepth(1)
	name := app.Services[svc].Name
	plan := chaos.NewPlan(app, chaos.Fault{
		Type: chaos.FaultCPU, Level: chaos.LevelContainer,
		Target: name, SlowFactor: 80, ErrorProb: 0.3,
	})
	hits := 0
	for id := 0; id < 30; id++ {
		sample, err := s.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample.RootFaults) == 0 {
			continue
		}
		found := false
		for _, rs := range sample.RootServices {
			if rs == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("root services %v miss the faulted service %s", sample.RootServices, name)
		}
		if len(sample.RootPods) == 0 || len(sample.RootNodes) == 0 {
			t.Fatal("pods/nodes not derived")
		}
		hits++
	}
	if hits < 5 {
		t.Fatalf("only %d/30 requests materially affected by an 80x fault", hits)
	}
}

func TestGroundTruthEmptyWithoutFaults(t *testing.T) {
	app := synth.Synthetic(16, 9)
	s := New(app, DefaultOptions(9))
	plan := chaos.NewPlan(app) // empty
	sample, err := s.SimulateWithTruth(0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.RootFaults) != 0 || len(sample.RootServices) != 0 {
		t.Fatalf("empty plan produced ground truth %v", sample.RootServices)
	}
	if sample.FaultFreeDuration != sample.Result.Duration {
		t.Fatal("fault-free duration differs without faults")
	}
}

func TestMaskedFaultNotRootCause(t *testing.T) {
	// A fault whose leave-one-out replay changes nothing material must not
	// appear in the ground truth: inject a tiny slowdown alongside a large
	// one in a different service; the large one dominates.
	app := synth.Synthetic(64, 10)
	s := New(app, DefaultOptions(10))
	svcBig := app.ServiceAtCallDepth(1)
	// Tiny fault on a leaf-tier service with negligible factor.
	var svcSmall int
	for i, sv := range app.Services {
		if i != svcBig && sv.Tier == synth.TierLeaf {
			svcSmall = i
			break
		}
	}
	plan := chaos.NewPlan(app,
		chaos.Fault{Type: chaos.FaultCPU, Level: chaos.LevelContainer, Target: app.Services[svcBig].Name, SlowFactor: 100},
		chaos.Fault{Type: chaos.FaultCPU, Level: chaos.LevelContainer, Target: app.Services[svcSmall].Name, SlowFactor: 1.01},
	)
	smallFlagged := 0
	total := 0
	for id := 0; id < 20; id++ {
		sample, err := s.SimulateWithTruth(id, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(sample.RootFaults) == 0 {
			continue
		}
		total++
		for _, fi := range sample.RootFaults {
			if fi == 1 {
				smallFlagged++
			}
		}
	}
	if total == 0 {
		t.Fatal("large fault never material")
	}
	if smallFlagged > total/4 {
		t.Fatalf("negligible fault flagged as root cause %d/%d times", smallFlagged, total)
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	s := newSim(t, 16, 11)
	a, err := s.Run(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 40 {
		t.Fatalf("Run returned %d results", len(a))
	}
	for i := range a {
		if a[i].Duration != b[i].Duration {
			t.Fatalf("parallel run nondeterministic at %d", i)
		}
	}
	trs := Traces(a)
	if len(trs) != 40 || trs[0] != a[0].Trace {
		t.Fatal("Traces extraction wrong")
	}
}

func TestHeavyTailedDurations(t *testing.T) {
	// The span-duration distribution should be heavy-tailed (Figure 3):
	// the max should be far above the median.
	s := newSim(t, 64, 12)
	results, err := s.Run(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var durations []float64
	for _, r := range results {
		for _, sp := range r.Trace.Spans {
			durations = append(durations, float64(sp.Duration()))
		}
	}
	if len(durations) < 1000 {
		t.Fatalf("only %d spans simulated", len(durations))
	}
	var max, sum float64
	for _, d := range durations {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / float64(len(durations))
	if max/mean < 10 {
		t.Fatalf("duration tail too light: max/mean = %v", max/mean)
	}
}

func BenchmarkSimulateRequest64(b *testing.B) {
	s := New(synth.Synthetic(64, 13), DefaultOptions(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SimulateRequest(i, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateRequest1024(b *testing.B) {
	s := New(synth.Synthetic(1024, 13), DefaultOptions(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SimulateRequest(i, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpanIDMatchesSprintf pins spanID to the fmt.Sprintf("s%04x", id) it
// replaces, on every id from 0 to 2²⁰: through the padded widths and across
// the 0xffff → 0x10000 step where the zero padding ends.
func TestSpanIDMatchesSprintf(t *testing.T) {
	for id := 0; id <= 1<<20; id++ {
		if got, want := spanID(id), fmt.Sprintf("s%04x", id); got != want {
			t.Fatalf("spanID(%d) = %q, want %q", id, got, want)
		}
	}
}
