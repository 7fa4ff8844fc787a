// Package sim executes synthetic microservice applications as a
// discrete-event simulation and emits OpenTelemetry-shaped traces.
//
// It is the substitute for the paper's Kubernetes deployment of generated
// gRPC services: each simulated request interprets an operation flow's call
// tree — sequential stages of parallel synchronous calls, asynchronous
// fire-and-forget messages, local workload kernels with heavy-tailed
// log-normal durations, per-call timeouts, error generation and propagation
// — and produces the client/server span pairs a real tracing pipeline
// would collect.
//
// Fault injection couples through chaos.Injector. Simulation is
// deterministic per request ID and — crucially — consumes random draws in
// an injector-independent order, so the same request can be replayed under
// counterfactual fault plans. Ground-truth root causes are computed exactly
// this way: a fault is a root cause of a request iff removing it (leave-
// one-out replay) materially restores the request, the operational meaning
// of the paper's root-cause definition (§3.1).
package sim

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/sleuth-rca/sleuth/internal/chaos"
	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Options tunes the simulator.
type Options struct {
	// Seed drives all randomness; the same seed replays identical traffic.
	Seed uint64
}

// DefaultOptions returns the options of a simulator seeded with seed.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed}
}

// Production-plausible latency constants, in µs.
const (
	// baseNetworkMicros is the one-way RPC transport latency.
	baseNetworkMicros = 300
	// interarrivalMicros spaces request start times.
	interarrivalMicros = 10_000
	// asyncEnqueueMicros is the producer-side cost of an async message.
	asyncEnqueueMicros = 200
	// asyncQueueDelayMicros is the broker delay before consumption.
	asyncQueueDelayMicros = 1_000
)

// Simulator executes requests against one application.
type Simulator struct {
	App *synth.App

	root *xrand.Rand
}

// New creates a Simulator.
func New(app *synth.App, opts Options) *Simulator {
	return &Simulator{App: app, root: xrand.New(opts.Seed)}
}

// reqCtx carries per-request state.
type reqCtx struct {
	rng     *xrand.Rand
	inj     *chaos.Injector
	spans   []*trace.Span
	traceID string
	nextID  int
	// faultErrors[i] counts errors caused by fault i in this request.
	faultErrors map[int]int
}

func (c *reqCtx) newSpanID() string {
	c.nextID++
	return spanID(c.nextID)
}

// spanID formats a non-negative id as fmt.Sprintf("s%04x", id) does: "s"
// and the id's lower-case hex digits, zero-padded to four, in one
// allocation.
func spanID(id int) string {
	var buf [24]byte
	b := append(buf[:0], 's')
	for w := 0x1000; w > 1 && id < w; w >>= 4 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, uint64(id), 16))
}

// Result of simulating one request.
type Result struct {
	Trace *trace.Trace
	// FlowIndex identifies which operation flow served the request.
	FlowIndex int
	// Duration is the end-to-end (root server span) duration in µs.
	Duration int64
	// Errored reports whether any span carries an error.
	Errored bool
}

// SimulateRequest replays request id through the app under the given
// injector (nil = fault-free). Identical (id, seed) pairs consume identical
// random draws regardless of the injector, enabling counterfactual replay.
func (s *Simulator) SimulateRequest(id int, inj *chaos.Injector) (*Result, error) {
	reqRng := s.root.Split(fmt.Sprintf("req-%d", id))
	flowIdx := reqRng.WeightedChoice(s.App.FlowWeights)
	ctx := &reqCtx{
		rng:         reqRng,
		inj:         inj,
		traceID:     fmt.Sprintf("%s-%08d", s.App.Name, id),
		faultErrors: make(map[int]int),
	}
	start := int64(id) * interarrivalMicros
	flow := s.App.Flows[flowIdx]
	end, _ := s.runServer(ctx, flow.Root, "", start)
	tr, err := trace.Assemble(ctx.spans)
	if err != nil {
		return nil, fmt.Errorf("sim: assembling request %d: %w", id, err)
	}
	res := &Result{
		Trace:     tr,
		FlowIndex: flowIdx,
		Duration:  end - start,
		Errored:   tr.HasError(),
	}
	return res, nil
}

// runServer executes the server side of a call: local kernels interleaved
// with child stages. It returns the server span's end time and error flag,
// having appended the server span (and all descendant spans) to ctx.
func (s *Simulator) runServer(ctx *reqCtx, c *synth.Call, parentSpanID string, serverStart int64) (int64, bool) {
	rpc := s.App.RPCs[c.RPC]
	svc := s.App.Services[rpc.Service]
	spanID := ctx.newSpanID()

	t := serverStart
	t += s.kernelDuration(ctx, c.Work[0], rpc.Service)

	childErr := false
	for si, stage := range c.Stages {
		stageEnd := t
		for _, child := range stage {
			if child.Async {
				// Fire-and-forget: the consumer's end time never feeds
				// back into the caller's critical path.
				s.runAsync(ctx, child, spanID, svc, t)
				continue
			}
			clientEnd, cerr := s.runClient(ctx, child, spanID, svc, t)
			if clientEnd > stageEnd {
				stageEnd = clientEnd
			}
			if cerr {
				childErr = true
			}
		}
		t = stageEnd
		t += s.kernelDuration(ctx, c.Work[si+1], rpc.Service)
	}
	serverEnd := t

	// Intrinsic + fault-induced error draw (single draw keeps replay
	// aligned across counterfactual plans).
	u := ctx.rng.Float64()
	extra, faults := ctx.inj.ExtraErrorProb(rpc.Service)
	combined := 1 - (1-c.ErrorProb)*(1-extra)
	ownErr := u < combined
	if ownErr && u >= c.ErrorProb {
		for _, fi := range faults {
			ctx.faultErrors[fi]++
		}
	}
	serverErr := ownErr || childErr

	ctx.spans = append(ctx.spans, &trace.Span{
		TraceID:  ctx.traceID,
		SpanID:   spanID,
		ParentID: parentSpanID,
		Service:  svc.Name,
		Name:     rpc.Name,
		Kind:     trace.KindServer,
		Start:    serverStart,
		End:      serverEnd,
		Error:    serverErr,
		Pod:      svc.Pod,
		Node:     svc.Node,
	})
	return serverEnd, serverErr
}

// runClient executes a synchronous child invocation from the parent's
// service: transport out, child server execution, transport back, clipped
// by the call timeout. It returns the client span end time and error flag.
func (s *Simulator) runClient(ctx *reqCtx, c *synth.Call, parentSpanID string, callerSvc *synth.Service, clientStart int64) (int64, bool) {
	rpc := s.App.RPCs[c.RPC]
	clientSpanID := ctx.newSpanID()

	netLat, netErrProb, netFaults := ctx.inj.NetworkPenalty(rpc.Service)
	netU := ctx.rng.Float64() // drawn unconditionally for replay alignment
	oneWay := baseNetworkMicros + netLat/2

	serverStart := clientStart + oneWay
	serverEnd, serverErr := s.runServer(ctx, c, clientSpanID, serverStart)
	rawClientEnd := serverEnd + oneWay

	clientEnd := rawClientEnd
	timedOut := false
	if c.TimeoutMicros > 0 && rawClientEnd-clientStart > c.TimeoutMicros {
		clientEnd = clientStart + c.TimeoutMicros
		timedOut = true
	}
	netErr := netU < netErrProb
	if netErr {
		for _, fi := range netFaults {
			ctx.faultErrors[fi]++
		}
	}
	clientErr := serverErr || timedOut || netErr

	ctx.spans = append(ctx.spans, &trace.Span{
		TraceID:  ctx.traceID,
		SpanID:   clientSpanID,
		ParentID: parentSpanID,
		Service:  callerSvc.Name,
		Name:     rpc.Name,
		Kind:     trace.KindClient,
		Start:    clientStart,
		End:      clientEnd,
		Error:    clientErr,
		Pod:      callerSvc.Pod,
		Node:     callerSvc.Node,
	})
	return clientEnd, clientErr
}

// runAsync executes an asynchronous child: a producer span in the caller
// and a consumer subtree in the callee, decoupled by the broker delay. The
// producer's latency never feeds back into the caller's critical path.
func (s *Simulator) runAsync(ctx *reqCtx, c *synth.Call, parentSpanID string, callerSvc *synth.Service, t int64) int64 {
	rpc := s.App.RPCs[c.RPC]
	producerID := ctx.newSpanID()
	enqueue := asyncEnqueueMicros + int64(ctx.rng.ExpFloat64(1.0/200))
	ctx.spans = append(ctx.spans, &trace.Span{
		TraceID:  ctx.traceID,
		SpanID:   producerID,
		ParentID: parentSpanID,
		Service:  callerSvc.Name,
		Name:     rpc.Name,
		Kind:     trace.KindProducer,
		Start:    t,
		End:      t + enqueue,
		Pod:      callerSvc.Pod,
		Node:     callerSvc.Node,
	})
	delay := asyncQueueDelayMicros + int64(ctx.rng.ExpFloat64(1.0/1000))
	// The consumer executes the call's server side with consumer kind: we
	// reuse runServer and rewrite the emitted span's kind.
	before := len(ctx.spans)
	end, _ := s.runServer(ctx, c, producerID, t+enqueue+delay)
	// The span for this call is the last appended at this nesting level;
	// find it by span start index (its children were appended before it).
	for i := len(ctx.spans) - 1; i >= before; i-- {
		if ctx.spans[i].ParentID == producerID && ctx.spans[i].Kind == trace.KindServer {
			ctx.spans[i].Kind = trace.KindConsumer
			break
		}
	}
	return end
}

// kernelDuration samples one local workload segment under faults.
func (s *Simulator) kernelDuration(ctx *reqCtx, k synth.Kernel, svc int) int64 {
	base := ctx.rng.LogNormal(k.Mu, k.Sigma)
	mult, _ := ctx.inj.KernelMultiplier(svc, k.Type)
	d := int64(base * mult)
	if d < 1 {
		d = 1
	}
	return d
}

// Sample couples a faulted trace with its exact ground truth.
type Sample struct {
	Result *Result
	// FaultFreeDuration is the same request replayed with no faults.
	FaultFreeDuration int64
	// RootFaults indexes plan faults confirmed as root causes by
	// leave-one-out replay.
	RootFaults []int
	// RootServices/RootPods/RootNodes are the ground-truth instances:
	// services affected by root faults that appear in the trace.
	RootServices []string
	RootPods     []string
	RootNodes    []string
}

// Root-cause materiality thresholds for leave-one-out replay: removing a
// fault must recover at least this fraction of the excess latency (and an
// absolute floor) or remove at least one error.
const (
	rcaMinFraction = 0.2
	rcaMinMicros   = 5_000
)

// SimulateWithTruth simulates request id under the plan and derives exact
// ground truth by counterfactual replay.
func (s *Simulator) SimulateWithTruth(id int, plan *chaos.Plan) (*Sample, error) {
	inj := chaos.NewInjector(s.App, plan)
	full, err := s.SimulateRequest(id, inj)
	if err != nil {
		return nil, err
	}
	base, err := s.SimulateRequest(id, nil)
	if err != nil {
		return nil, err
	}
	sample := &Sample{Result: full, FaultFreeDuration: base.Duration}

	fullErrors := countErrors(full.Trace)
	excess := full.Duration - base.Duration

	present := make(map[string]bool)
	for _, sp := range full.Trace.Spans {
		present[sp.Service] = true
	}

	svcSet := map[string]bool{}
	podSet := map[string]bool{}
	nodeSet := map[string]bool{}
	for fi := range plan.Faults {
		// Leave-one-out replay: all faults except fi.
		rest := make([]chaos.Fault, 0, len(plan.Faults)-1)
		for j, f := range plan.Faults {
			if j != fi {
				rest = append(rest, f)
			}
		}
		loo, err := s.SimulateRequest(id, chaos.NewInjector(s.App, chaos.NewPlan(s.App, rest...)))
		if err != nil {
			return nil, err
		}
		durGain := full.Duration - loo.Duration
		errGain := fullErrors - countErrors(loo.Trace)
		material := errGain > 0
		if !material && excess > 0 {
			material = durGain >= rcaMinMicros && float64(durGain) >= rcaMinFraction*float64(excess)
		}
		if !material {
			continue
		}
		sample.RootFaults = append(sample.RootFaults, fi)
		// Refine wide faults (node/pod level touching several services) to
		// the services whose share of the fault is individually material:
		// replay with only that service's participation masked. If no
		// single service is material on its own (jointly caused), keep
		// every present affected service.
		var presentAffected []int
		for _, si := range plan.AffectedServices(fi) {
			if present[s.App.Services[si].Name] {
				presentAffected = append(presentAffected, si)
			}
		}
		materialSvcs := presentAffected
		if len(presentAffected) > 1 {
			var confirmed []int
			for _, si := range presentAffected {
				masked, err := s.SimulateRequest(id, chaos.NewInjectorMasked(s.App, plan,
					map[chaos.Mask]bool{{Fault: fi, Service: si}: true}))
				if err != nil {
					return nil, err
				}
				durGain := full.Duration - masked.Duration
				errGain := fullErrors - countErrors(masked.Trace)
				ok := errGain > 0
				if !ok && excess > 0 {
					ok = durGain >= rcaMinMicros && float64(durGain) >= rcaMinFraction*float64(excess)
				}
				if ok {
					confirmed = append(confirmed, si)
				}
			}
			if len(confirmed) > 0 {
				materialSvcs = confirmed
			}
		}
		for _, si := range materialSvcs {
			svc := s.App.Services[si]
			svcSet[svc.Name] = true
			podSet[svc.Pod] = true
			nodeSet[svc.Node] = true
		}
	}
	sample.RootServices = sortedKeys(svcSet)
	sample.RootPods = sortedKeys(podSet)
	sample.RootNodes = sortedKeys(nodeSet)
	return sample, nil
}

func countErrors(t *trace.Trace) int {
	n := 0
	for _, sp := range t.Spans {
		if sp.Error {
			n++
		}
	}
	return n
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run simulates requests [firstID, firstID+n) fault-free in parallel,
// returning results ordered by request ID. Used to build training corpora.
func (s *Simulator) Run(firstID, n int) ([]*Result, error) {
	return s.runParallel(firstID, n, nil)
}

// RunWithInjector simulates n requests under a fixed injector in parallel.
func (s *Simulator) RunWithInjector(firstID, n int, inj *chaos.Injector) ([]*Result, error) {
	return s.runParallel(firstID, n, inj)
}

func (s *Simulator) runParallel(firstID, n int, inj *chaos.Injector) ([]*Result, error) {
	results := make([]*Result, n)
	errs := make([]error, n)
	par.For(n, func(_, i int) {
		results[i], errs[i] = s.SimulateRequest(firstID+i, inj)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Traces extracts the trace list from results.
func Traces(results []*Result) []*trace.Trace {
	out := make([]*trace.Trace, len(results))
	for i, r := range results {
		out[i] = r.Trace
	}
	return out
}
