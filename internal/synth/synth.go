// Package synth implements the paper's §5 synthetic microservice benchmark
// generation: given target counts of services and RPCs, it allocates RPCs
// to tiered services, builds random RPC dependency graphs per operation
// flow, attaches execution graphs (sequential stages of parallel child
// invocations, plus asynchronous fire-and-forget calls), and injects
// configurable local workload kernels between invocations.
//
// The paper's generator emits deployable gRPC code; here the generated
// configuration is executed directly by the discrete-event simulator in
// internal/sim, which plays the role of the Kubernetes deployment and
// produces the OpenTelemetry-shaped traces the RCA algorithms consume.
package synth

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Tier labels a service's position in the RPC dependency graph (§5.1.1).
type Tier string

// Service tiers. Frontend services sit at flow roots with high fan-out;
// leaf services terminate call chains (caches, stores, queues).
const (
	TierFrontend   Tier = "frontend"
	TierMiddleware Tier = "middleware"
	TierBackend    Tier = "backend"
	TierLeaf       Tier = "leaf"
)

// KernelType identifies which hardware/OS component a local workload
// kernel stresses — the dimension along which chaos faults couple to
// latency (a CPU fault slows CPU kernels, a disk fault disk kernels...).
type KernelType string

// Kernel types mirroring the paper's microbenchmark set (§5.1.4).
const (
	KernelCPU     KernelType = "cpu"
	KernelCache   KernelType = "cache"
	KernelMemory  KernelType = "memory"
	KernelNetwork KernelType = "network"
	KernelDisk    KernelType = "disk"
	KernelFS      KernelType = "fs"
	KernelSched   KernelType = "sched"
)

// AllKernelTypes lists every kernel type.
var AllKernelTypes = []KernelType{
	KernelCPU, KernelCache, KernelMemory, KernelNetwork, KernelDisk, KernelFS, KernelSched,
}

// Kernel is a local workload segment: a log-normal duration (µs) of the
// given stress type, executed between child-RPC invocations.
type Kernel struct {
	Type  KernelType `json:"type"`
	Mu    float64    `json:"mu"`    // log-normal µ of duration in µs
	Sigma float64    `json:"sigma"` // log-normal σ
}

// Service is one microservice with its placement.
type Service struct {
	Name string `json:"name"`
	Tier Tier   `json:"tier"`
	Pod  string `json:"pod"`
	Node string `json:"node"`
}

// RPC is one remote procedure exposed by a service.
type RPC struct {
	ID      int    `json:"id"`
	Service int    `json:"service"` // index into App.Services
	Name    string `json:"name"`
}

// Call is a node of an operation flow's call tree together with its
// execution graph: Stages lists sequential groups of child calls, the
// calls within one stage running in parallel; Work lists len(Stages)+1
// local processing segments interleaved around the stages.
type Call struct {
	RPC    int       `json:"rpc"`
	Async  bool      `json:"async,omitempty"`
	Stages [][]*Call `json:"stages,omitempty"`
	Work   []Kernel  `json:"work"`
	// TimeoutMicros caps how long the caller waits for this call
	// (0 = no timeout). Timeouts bound anomaly propagation, the v'
	// parameter of the paper's Eq. 2.
	TimeoutMicros int64 `json:"timeoutMicros,omitempty"`
	// ErrorProb is the baseline probability this call fails on its own.
	ErrorProb float64 `json:"errorProb,omitempty"`
}

// Flow is one operation type: an entry RPC and its call tree.
type Flow struct {
	Name string `json:"name"`
	Root *Call  `json:"root"`
}

// App is a complete generated microservice application.
type App struct {
	Name     string     `json:"name"`
	Services []*Service `json:"services"`
	RPCs     []*RPC     `json:"rpcs"`
	Flows    []*Flow    `json:"flows"`
	// FlowWeights is the request-mix weight per flow.
	FlowWeights []float64 `json:"flowWeights"`
	// Nodes lists the cluster nodes services are placed on.
	Nodes []string `json:"nodes"`
	Seed  uint64   `json:"seed"`
}

// Params configures the generator.
type Params struct {
	Name        string
	NumServices int
	NumRPCs     int
	// MaxCallDepth bounds the call-tree depth of the largest flow.
	MaxCallDepth int
	// NumFlows is the number of operation flows (≥1). The first flow is
	// the "full" flow covering every RPC; the rest are random subsets.
	NumFlows int
	// MaxFlowCalls, when positive, caps how many RPCs the largest flow
	// contains (presets use it to hit the Table-1 max-span figures of
	// apps whose biggest API does not touch every RPC).
	MaxFlowCalls int
	// Seed drives every random decision.
	Seed uint64
}

// The generator's fixed shape.
const (
	// clusterNodes is the number of nodes services are spread over.
	clusterNodes = 20
	// asyncProb is the probability a non-root call is asynchronous.
	asyncProb = 0.08
	// parallelBias in [0,1]: 1 packs all children of a call into one
	// parallel stage, 0 makes them fully sequential.
	parallelBias = 0.5
	// workMu/workSigma parameterise the base log-normal of local kernels
	// (µ in ln-µs; e^7.2 ≈ 1.3ms). They yield the heavy-tailed
	// span-duration CDF of the paper's Figure 3.
	workMu    = 7.2
	workSigma = 0.8
	// timeoutMicros is the child-call timeout.
	timeoutMicros = 2_000_000
	// baseErrorProb is the per-call intrinsic failure probability.
	baseErrorProb = 0.0015
)

// withDefaults fills zero-valued fields with sensible defaults.
func (p Params) withDefaults() Params {
	if p.Name == "" {
		p.Name = fmt.Sprintf("synthetic-%d", p.NumRPCs)
	}
	if p.NumServices <= 0 {
		p.NumServices = maxInt(1, p.NumRPCs/4)
	}
	if p.MaxCallDepth <= 0 {
		p.MaxCallDepth = 7
	}
	if p.NumFlows <= 0 {
		p.NumFlows = 4
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds a synthetic application from params. The same params
// (including Seed) always produce the identical application.
func Generate(params Params) *App {
	p := params.withDefaults()
	rng := xrand.New(p.Seed)
	app := &App{Name: p.Name, Seed: p.Seed}

	// Cluster nodes.
	for i := 0; i < clusterNodes; i++ {
		app.Nodes = append(app.Nodes, fmt.Sprintf("node-%02d", i))
	}

	// Services with tier labels (§5.1.1). The tier mix skews toward
	// backend/leaf services, matching production call graphs where entry
	// tiers are thin and storage tiers wide.
	tiers := tierAssignment(p.NumServices, rng.Split("tiers"))
	nameRng := rng.Split("names")
	vocab := DefaultVocabulary()
	svcNames := vocab.ServiceNames(p.NumServices, nameRng)
	for i := 0; i < p.NumServices; i++ {
		app.Services = append(app.Services, &Service{
			Name: svcNames[i],
			Tier: tiers[i],
			Pod:  fmt.Sprintf("%s-0", svcNames[i]),
			Node: app.Nodes[rng.Split("placement").Intn(len(app.Nodes))],
		})
	}
	// Deterministic placement: re-derive per service.
	placeRng := rng.Split("placement2")
	for _, s := range app.Services {
		s.Node = app.Nodes[placeRng.Intn(len(app.Nodes))]
	}

	// RPC allocation: every service gets at least one RPC; the remainder
	// are distributed with a bias toward backend/leaf services.
	opRng := rng.Split("ops")
	svcOf := make([]int, p.NumRPCs)
	for i := 0; i < p.NumRPCs; i++ {
		if i < p.NumServices {
			svcOf[i] = i
			continue
		}
		weights := make([]float64, p.NumServices)
		for s := range weights {
			switch app.Services[s].Tier {
			case TierFrontend:
				weights[s] = 0.5
			case TierMiddleware:
				weights[s] = 1
			case TierBackend:
				weights[s] = 1.6
			case TierLeaf:
				weights[s] = 1.2
			}
		}
		svcOf[i] = opRng.WeightedChoice(weights)
	}
	for i := 0; i < p.NumRPCs; i++ {
		app.RPCs = append(app.RPCs, &RPC{
			ID:      i,
			Service: svcOf[i],
			Name:    vocab.OperationName(app.Services[svcOf[i]].Name, i, nameRng),
		})
	}

	// Flows: the first covers all RPCs (defines the Table-1 max-spans
	// figure); later flows sample subsets for request-mix diversity.
	flowRng := rng.Split("flows")
	fullSize := p.NumRPCs
	if p.MaxFlowCalls > 0 && p.MaxFlowCalls < fullSize {
		fullSize = p.MaxFlowCalls
	}
	var all []int
	if fullSize == p.NumRPCs {
		all = make([]int, p.NumRPCs)
		for i := range all {
			all[i] = i
		}
	} else {
		all = sampleRPCSubset(app, fullSize, flowRng.Split("full-subset"))
	}
	app.Flows = append(app.Flows, buildFlow(app, p, "full", all, flowRng.Split("flow-full")))
	app.FlowWeights = append(app.FlowWeights, 1)
	for f := 1; f < p.NumFlows; f++ {
		frng := flowRng.Split(fmt.Sprintf("flow-%d", f))
		size := maxInt(2, p.NumRPCs/(2<<uint(f%3)))
		if size > fullSize {
			size = fullSize
		}
		subset := sampleRPCSubset(app, size, frng)
		app.Flows = append(app.Flows, buildFlow(app, p, fmt.Sprintf("op%d", f), subset, frng))
		app.FlowWeights = append(app.FlowWeights, 2+float64(flowRng.Intn(5)))
	}
	return app
}

// tierAssignment labels services with tiers in fixed proportions.
func tierAssignment(n int, rng *xrand.Rand) []Tier {
	tiers := make([]Tier, n)
	for i := range tiers {
		switch {
		case i == 0:
			tiers[i] = TierFrontend
		case i < maxInt(2, n/8):
			tiers[i] = TierFrontend
		case i < n*2/5:
			tiers[i] = TierMiddleware
		case i < n*3/4:
			tiers[i] = TierBackend
		default:
			tiers[i] = TierLeaf
		}
	}
	// Shuffle all but the first (index 0 stays frontend so flows always
	// have an entry service).
	rng.Shuffle(n-1, func(i, j int) { tiers[i+1], tiers[j+1] = tiers[j+1], tiers[i+1] })
	tiers[0] = TierFrontend
	return tiers
}

// sampleRPCSubset picks size RPCs always including a frontend-owned RPC.
func sampleRPCSubset(app *App, size int, rng *xrand.Rand) []int {
	if size > len(app.RPCs) {
		size = len(app.RPCs)
	}
	perm := rng.Perm(len(app.RPCs))
	subset := perm[:size]
	// Ensure a frontend RPC is present to act as root.
	hasFront := false
	for _, id := range subset {
		if app.Services[app.RPCs[id].Service].Tier == TierFrontend {
			hasFront = true
			break
		}
	}
	if !hasFront {
		for _, id := range perm[size:] {
			if app.Services[app.RPCs[id].Service].Tier == TierFrontend {
				subset[0] = id
				break
			}
		}
	}
	return subset
}

// buildFlow constructs the RPC dependency graph for one operation flow
// (§5.1.2) and its execution graphs (§5.1.3): a random tree over the given
// RPC set whose shallow nodes prefer frontend/middleware RPCs and deep
// nodes backend/leaf RPCs, with children partitioned into sequential
// stages of parallel calls.
func buildFlow(app *App, p Params, name string, rpcIDs []int, rng *xrand.Rand) *Flow {
	// Order candidates by tier depth preference with random jitter.
	tierDepth := func(id int) float64 {
		switch app.Services[app.RPCs[id].Service].Tier {
		case TierFrontend:
			return 0
		case TierMiddleware:
			return 1
		case TierBackend:
			return 2
		default:
			return 3
		}
	}
	ids := append([]int(nil), rpcIDs...)
	// Root: the shallowest-tier RPC.
	rootIdx := 0
	for i, id := range ids {
		if tierDepth(id) < tierDepth(ids[rootIdx]) {
			rootIdx = i
		}
		_ = i
	}
	ids[0], ids[rootIdx] = ids[rootIdx], ids[0]
	// Sort the rest by tier depth + jitter so the tree layers respect tiers.
	rest := ids[1:]
	keys := make([]float64, len(rest))
	for i, id := range rest {
		keys[i] = tierDepth(id) + rng.Float64()*1.5
	}
	for i := 1; i < len(rest); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			rest[j], rest[j-1] = rest[j-1], rest[j]
		}
	}

	calls := make([]*Call, len(ids))
	depth := make([]int, len(ids))
	for i, id := range ids {
		calls[i] = &Call{RPC: id, TimeoutMicros: timeoutMicros, ErrorProb: baseErrorProb}
	}
	// Attach each subsequent call under an earlier one whose depth leaves
	// room, preferring recent shallow parents (produces Alibaba-like wide
	// shallow layers near the top and chains below).
	type childrenOf = []*Call
	kids := make([]childrenOf, len(ids))
	for i := 1; i < len(ids); i++ {
		// Candidate parents: indexes < i with depth < MaxCallDepth-1.
		weights := make([]float64, i)
		for j := 0; j < i; j++ {
			if depth[j] >= p.MaxCallDepth-1 {
				continue
			}
			// Prefer parents one tier up and with small current fan-out.
			w := 1.0 / (1 + float64(len(kids[j])))
			dt := tierDepth(ids[i]) - tierDepth(ids[j])
			if dt >= 0.5 {
				w *= 3
			}
			// Depth shaping: bias toward mid-depth parents.
			w *= 1 + float64(depth[j])
			weights[j] = w
		}
		parent := rng.WeightedChoice(weights)
		kids[parent] = append(kids[parent], calls[i])
		depth[i] = depth[parent] + 1
		calls[i].Async = rng.Bernoulli(asyncProb)
	}
	// Partition children into execution stages and attach local kernels.
	for i, c := range calls {
		c.Stages = stageChildren(kids[i], parallelBias, rng)
		c.Work = make([]Kernel, len(c.Stages)+1)
		for w := range c.Work {
			c.Work[w] = Kernel{
				Type:  AllKernelTypes[rng.Intn(len(AllKernelTypes))],
				Mu:    workMu + rng.Normal(0, 0.5),
				Sigma: workSigma * (0.7 + 0.6*rng.Float64()),
			}
		}
		// Leaf-tier calls skew shorter (caches) but with heavier tails.
		if app.Services[app.RPCs[c.RPC].Service].Tier == TierLeaf {
			for w := range c.Work {
				c.Work[w].Mu -= 1.5
				c.Work[w].Sigma *= 1.3
			}
		}
	}
	return &Flow{Name: name, Root: calls[0]}
}

// stageChildren partitions children into sequential stages of parallel
// calls. Async children always join the first stage (fire-and-forget).
func stageChildren(children []*Call, parallelBias float64, rng *xrand.Rand) [][]*Call {
	if len(children) == 0 {
		return nil
	}
	var stages [][]*Call
	current := []*Call{}
	for _, c := range children {
		if c.Async {
			// Fire-and-forget joins whatever stage is open.
			current = append(current, c)
			continue
		}
		if len(current) > 0 && !rng.Bernoulli(parallelBias) {
			stages = append(stages, current)
			current = nil
		}
		current = append(current, c)
	}
	if len(current) > 0 {
		stages = append(stages, current)
	}
	return stages
}

// Walk visits every call in the flow tree in depth-first order.
func (f *Flow) Walk(visit func(c *Call, depth int)) {
	var rec func(c *Call, d int)
	rec = func(c *Call, d int) {
		visit(c, d)
		for _, stage := range c.Stages {
			for _, child := range stage {
				rec(child, d+1)
			}
		}
	}
	rec(f.Root, 0)
}

// NumCalls returns the number of calls in the flow tree.
func (f *Flow) NumCalls() int {
	n := 0
	f.Walk(func(*Call, int) { n++ })
	return n
}

// MaxCallDepth returns the deepest call level (root = 1).
func (f *Flow) MaxCallDepth() int {
	max := 0
	f.Walk(func(_ *Call, d int) {
		if d+1 > max {
			max = d + 1
		}
	})
	return max
}

// MaxFanout returns the largest number of children of any call.
func (f *Flow) MaxFanout() int {
	max := 0
	f.Walk(func(c *Call, _ int) {
		n := 0
		for _, s := range c.Stages {
			n += len(s)
		}
		if n > max {
			max = n
		}
	})
	return max
}

// Spec summarises an application in the shape of the paper's Table 1.
type Spec struct {
	Name         string
	Services     int
	RPCs         int
	MaxSpans     int
	MaxDepth     int // span-tree depth of the largest flow
	MaxOutDegree int
}

// Spec computes the Table-1 row for the app. Span counts follow the
// simulator's emission rule: the root call yields one server span and every
// child call a client+server pair, so a flow with k calls yields 2k-1
// spans; span-tree depth is 2·callDepth-1.
func (a *App) Spec() Spec {
	s := Spec{Name: a.Name, Services: len(a.Services), RPCs: len(a.RPCs)}
	for _, f := range a.Flows {
		if spans := 2*f.NumCalls() - 1; spans > s.MaxSpans {
			s.MaxSpans = spans
		}
		if d := 2*f.MaxCallDepth() - 1; d > s.MaxDepth {
			s.MaxDepth = d
		}
		if fo := f.MaxFanout(); fo > s.MaxOutDegree {
			s.MaxOutDegree = fo
		}
	}
	return s
}

// ServiceOf returns the service owning RPC id.
func (a *App) ServiceOf(rpcID int) *Service {
	return a.Services[a.RPCs[rpcID].Service]
}

// ServiceIndex returns the index of the service with the given name, or -1.
func (a *App) ServiceIndex(name string) int {
	for i, s := range a.Services {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// SaveJSON writes the app configuration to path.
func (a *App) SaveJSON(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadJSON reads an app configuration from path.
func LoadJSON(path string) (*App, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var app App
	if err := json.Unmarshal(data, &app); err != nil {
		return nil, fmt.Errorf("synth: parsing %s: %w", path, err)
	}
	return &app, nil
}
