// Package chaos implements the fault-injection protocol of §6.1.4: faults
// of four resource types are injected at container, pod or node level,
// with each instance independently selected by a Bernoulli draw with a
// small probability — the Chaosblade substitute driving the evaluation.
//
// The injector translates an active fault plan into the knobs the
// simulator exposes: multipliers on local workload kernels of matching
// stress types, extra error probability for calls handled by affected
// services, and added network latency/failures for RPCs into affected
// services. Because injection decisions are recorded per simulated
// request, exact ground-truth root-cause labels fall out of simulation.
package chaos

import (
	"fmt"

	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// FaultType is the stressed resource.
type FaultType string

// Fault types injected by the evaluation (§6.1.4).
const (
	FaultCPU     FaultType = "cpu"
	FaultMemory  FaultType = "memory"
	FaultDisk    FaultType = "disk"
	FaultNetwork FaultType = "network"
)

// AllFaultTypes lists every fault type.
var AllFaultTypes = []FaultType{FaultCPU, FaultMemory, FaultDisk, FaultNetwork}

// Level is the blast-radius granularity of a fault.
type Level string

// Fault levels.
const (
	LevelContainer Level = "container"
	LevelPod       Level = "pod"
	LevelNode      Level = "node"
)

// Fault is one injected failure.
type Fault struct {
	Type  FaultType `json:"type"`
	Level Level     `json:"level"`
	// Target is the service name (container level), pod name (pod level)
	// or node name (node level).
	Target string `json:"target"`
	// SlowFactor multiplies matching kernel durations (>1 slows down).
	SlowFactor float64 `json:"slowFactor,omitempty"`
	// ErrorProb is the extra probability that an affected call errors.
	ErrorProb float64 `json:"errorProb,omitempty"`
	// NetLatencyMicros is extra per-RPC latency for network faults.
	NetLatencyMicros int64 `json:"netLatencyMicros,omitempty"`
}

// String renders the fault for logs and ground-truth records.
func (f Fault) String() string {
	return fmt.Sprintf("%s/%s@%s", f.Type, f.Level, f.Target)
}

// Plan is the set of faults active during one evaluation window, together
// with the instance resolution needed to map them onto services.
type Plan struct {
	Faults []Fault `json:"faults"`
	// affectedServices[i] lists the service indexes fault i touches.
	affectedServices [][]int
}

// PlanParams tunes random plan generation.
type PlanParams struct {
	// PContainer/PPod/PNode are the per-instance Bernoulli probabilities.
	PContainer, PPod, PNode float64
	// MinFaults forces at least this many faults (an evaluation sample
	// needs at least one anomaly source); extra faults are drawn at
	// container level on uniformly random services.
	MinFaults int
}

// DefaultPlanParams mirrors the paper's "distinct small probabilities".
func DefaultPlanParams() PlanParams {
	return PlanParams{PContainer: 0.02, PPod: 0.01, PNode: 0.005, MinFaults: 1}
}

// ScaledPlanParams keeps the expected number of simultaneous faults
// roughly constant (~1.8) regardless of application size, so scale
// experiments measure trace complexity rather than fault-count inflation.
func ScaledPlanParams(app *synth.App) PlanParams {
	nSvc := float64(len(app.Services))
	nNode := float64(len(app.Nodes))
	clamp := func(p, cap float64) float64 {
		if p > cap {
			return cap
		}
		return p
	}
	return PlanParams{
		PContainer: clamp(1.2/nSvc, 0.05),
		PPod:       clamp(0.4/nSvc, 0.02),
		PNode:      clamp(0.2/nNode, 0.01),
		MinFaults:  1,
	}
}

// GeneratePlan draws a random fault plan for the app.
func GeneratePlan(app *synth.App, p PlanParams, rng *xrand.Rand) *Plan {
	plan := &Plan{}
	typeRng := rng.Split("types")
	sevRng := rng.Split("severity")
	add := func(level Level, target string) {
		ft := AllFaultTypes[typeRng.Intn(len(AllFaultTypes))]
		plan.Faults = append(plan.Faults, makeFault(ft, level, target, sevRng))
	}
	cRng := rng.Split("containers")
	for _, s := range app.Services {
		if cRng.Bernoulli(p.PContainer) {
			add(LevelContainer, s.Name)
		}
	}
	pRng := rng.Split("pods")
	for _, s := range app.Services {
		if pRng.Bernoulli(p.PPod) {
			add(LevelPod, s.Pod)
		}
	}
	nRng := rng.Split("nodes")
	for _, n := range app.Nodes {
		if nRng.Bernoulli(p.PNode) {
			add(LevelNode, n)
		}
	}
	fillRng := rng.Split("fill")
	for len(plan.Faults) < p.MinFaults {
		svc := app.Services[fillRng.Intn(len(app.Services))]
		ft := AllFaultTypes[typeRng.Intn(len(AllFaultTypes))]
		plan.Faults = append(plan.Faults, makeFault(ft, LevelContainer, svc.Name, sevRng))
	}
	plan.resolve(app)
	return plan
}

// makeFault samples severity parameters for a fault.
func makeFault(ft FaultType, level Level, target string, rng *xrand.Rand) Fault {
	f := Fault{Type: ft, Level: level, Target: target}
	switch ft {
	case FaultNetwork:
		// 20ms – 500ms added latency, occasional outright failures.
		f.NetLatencyMicros = int64(20_000 + rng.Float64()*480_000)
		f.ErrorProb = 0.05 + 0.45*rng.Float64()
	default:
		// 4× – 30× slowdown of matching kernels with some error leakage.
		f.SlowFactor = 4 + rng.Float64()*26
		f.ErrorProb = 0.02 + 0.18*rng.Float64()
	}
	return f
}

// NewPlan builds a plan from explicit faults (examples, directed tests).
func NewPlan(app *synth.App, faults ...Fault) *Plan {
	plan := &Plan{Faults: faults}
	plan.resolve(app)
	return plan
}

// resolve maps each fault to the service indexes it affects.
func (p *Plan) resolve(app *synth.App) {
	p.affectedServices = make([][]int, len(p.Faults))
	for i, f := range p.Faults {
		for si, s := range app.Services {
			hit := false
			switch f.Level {
			case LevelContainer:
				hit = s.Name == f.Target
			case LevelPod:
				hit = s.Pod == f.Target
			case LevelNode:
				hit = s.Node == f.Target
			}
			if hit {
				p.affectedServices[i] = append(p.affectedServices[i], si)
			}
		}
	}
}

// AffectedServices returns the service indexes fault i touches.
func (p *Plan) AffectedServices(i int) []int { return p.affectedServices[i] }

// kernelMatches reports whether a fault type slows a kernel type.
func kernelMatches(ft FaultType, k synth.KernelType) bool {
	switch ft {
	case FaultCPU:
		return k == synth.KernelCPU || k == synth.KernelCache || k == synth.KernelSched
	case FaultMemory:
		return k == synth.KernelMemory || k == synth.KernelCache
	case FaultDisk:
		return k == synth.KernelDisk || k == synth.KernelFS
	case FaultNetwork:
		return k == synth.KernelNetwork
	}
	return false
}

// Injector answers the simulator's per-call questions about the active
// plan. A nil Injector is valid and injects nothing.
type Injector struct {
	plan *Plan
	// byService[s] lists fault indexes affecting service s.
	byService [][]int
}

// NewInjector prepares a plan for fast lookup against the app.
func NewInjector(app *synth.App, plan *Plan) *Injector {
	return NewInjectorMasked(app, plan, nil)
}

// Mask identifies one (fault, service) application to suppress.
type Mask struct {
	Fault   int
	Service int
}

// NewInjectorMasked prepares a plan with selected (fault, service)
// applications suppressed. Counterfactual ground-truth extraction uses
// this to test whether a single service's share of a wide (node-level)
// fault is material on its own.
func NewInjectorMasked(app *synth.App, plan *Plan, masked map[Mask]bool) *Injector {
	inj := &Injector{plan: plan, byService: make([][]int, len(app.Services))}
	for fi := range plan.Faults {
		for _, si := range plan.affectedServices[fi] {
			if masked[Mask{Fault: fi, Service: si}] {
				continue
			}
			inj.byService[si] = append(inj.byService[si], fi)
		}
	}
	return inj
}

// KernelMultiplier returns the combined duration multiplier for a kernel of
// type k executing in service svc, along with the fault indexes applied.
func (inj *Injector) KernelMultiplier(svc int, k synth.KernelType) (float64, []int) {
	if inj == nil {
		return 1, nil
	}
	mult := 1.0
	var applied []int
	for _, fi := range inj.byService[svc] {
		f := inj.plan.Faults[fi]
		if f.SlowFactor > 1 && kernelMatches(f.Type, k) {
			mult *= f.SlowFactor
			applied = append(applied, fi)
		}
	}
	return mult, applied
}

// ExtraErrorProb returns the added failure probability for calls handled by
// service svc and the contributing fault indexes.
func (inj *Injector) ExtraErrorProb(svc int) (float64, []int) {
	if inj == nil {
		return 0, nil
	}
	p := 0.0
	var applied []int
	for _, fi := range inj.byService[svc] {
		f := inj.plan.Faults[fi]
		if f.ErrorProb > 0 && f.Type != FaultNetwork {
			p = combineProb(p, f.ErrorProb)
			applied = append(applied, fi)
		}
	}
	return p, applied
}

// NetworkPenalty returns added latency and failure probability for an RPC
// into service svc (network faults act on the link, §6.2 notes they hit
// the client span directly), plus the contributing fault indexes.
func (inj *Injector) NetworkPenalty(svc int) (latency int64, errProb float64, applied []int) {
	if inj == nil {
		return 0, 0, nil
	}
	for _, fi := range inj.byService[svc] {
		f := inj.plan.Faults[fi]
		if f.Type == FaultNetwork {
			latency += f.NetLatencyMicros
			errProb = combineProb(errProb, f.ErrorProb)
			applied = append(applied, fi)
		}
	}
	return latency, errProb, applied
}

// combineProb returns the probability of either independent event.
func combineProb(a, b float64) float64 { return 1 - (1-a)*(1-b) }

// Plan returns the injector's plan (nil-safe).
func (inj *Injector) Plan() *Plan {
	if inj == nil {
		return nil
	}
	return inj.plan
}
