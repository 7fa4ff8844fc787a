package chaos

import (
	"testing"

	"github.com/sleuth-rca/sleuth/internal/synth"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func testApp() *synth.App { return synth.Synthetic(16, 1) }

func TestGeneratePlanDeterministic(t *testing.T) {
	app := testApp()
	a := GeneratePlan(app, DefaultPlanParams(), xrand.New(5))
	b := GeneratePlan(app, DefaultPlanParams(), xrand.New(5))
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a.Faults[i], b.Faults[i])
		}
	}
}

func TestGeneratePlanMinFaults(t *testing.T) {
	app := testApp()
	p := PlanParams{MinFaults: 3} // zero probabilities → only fill
	plan := GeneratePlan(app, p, xrand.New(9))
	if len(plan.Faults) < 3 {
		t.Fatalf("plan has %d faults, want >= 3", len(plan.Faults))
	}
	for _, f := range plan.Faults {
		if f.Level != LevelContainer {
			t.Fatalf("fill fault at level %s", f.Level)
		}
	}
}

func TestPlanResolveLevels(t *testing.T) {
	app := testApp()
	svc := app.Services[1]
	plan := NewPlan(app,
		Fault{Type: FaultCPU, Level: LevelContainer, Target: svc.Name, SlowFactor: 10},
		Fault{Type: FaultDisk, Level: LevelPod, Target: svc.Pod, SlowFactor: 5},
		Fault{Type: FaultMemory, Level: LevelNode, Target: svc.Node, SlowFactor: 4},
	)
	if got := plan.AffectedServices(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("container fault affected %v", got)
	}
	if got := plan.AffectedServices(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pod fault affected %v", got)
	}
	// Node-level fault hits every service on that node (at least service 1).
	nodeHits := plan.AffectedServices(2)
	found := false
	for _, s := range nodeHits {
		if s == 1 {
			found = true
		}
		if app.Services[s].Node != svc.Node {
			t.Fatalf("node fault hit service on node %s", app.Services[s].Node)
		}
	}
	if !found {
		t.Fatal("node fault missed the colocated service")
	}
}

func TestInjectorKernelMultiplier(t *testing.T) {
	app := testApp()
	plan := NewPlan(app,
		Fault{Type: FaultCPU, Level: LevelContainer, Target: app.Services[2].Name, SlowFactor: 10},
	)
	inj := NewInjector(app, plan)
	// CPU fault slows cpu/cache/sched kernels of service 2.
	for _, k := range []synth.KernelType{synth.KernelCPU, synth.KernelCache, synth.KernelSched} {
		if m, faults := inj.KernelMultiplier(2, k); m != 10 || len(faults) != 1 {
			t.Fatalf("kernel %s multiplier = %v (faults %v)", k, m, faults)
		}
	}
	// It must not slow disk kernels or other services.
	if m, _ := inj.KernelMultiplier(2, synth.KernelDisk); m != 1 {
		t.Fatalf("disk multiplier = %v", m)
	}
	if m, _ := inj.KernelMultiplier(3, synth.KernelCPU); m != 1 {
		t.Fatalf("other-service multiplier = %v", m)
	}
}

func TestInjectorMultipleFaultsCompound(t *testing.T) {
	app := testApp()
	plan := NewPlan(app,
		Fault{Type: FaultCPU, Level: LevelContainer, Target: app.Services[0].Name, SlowFactor: 2},
		Fault{Type: FaultCPU, Level: LevelNode, Target: app.Services[0].Node, SlowFactor: 3},
	)
	inj := NewInjector(app, plan)
	if m, faults := inj.KernelMultiplier(0, synth.KernelCPU); m != 6 || len(faults) != 2 {
		t.Fatalf("compound multiplier = %v, faults = %v", m, faults)
	}
}

func TestInjectorErrorAndNetwork(t *testing.T) {
	app := testApp()
	plan := NewPlan(app,
		Fault{Type: FaultCPU, Level: LevelContainer, Target: app.Services[1].Name, SlowFactor: 5, ErrorProb: 0.5},
		Fault{Type: FaultNetwork, Level: LevelContainer, Target: app.Services[1].Name, NetLatencyMicros: 100_000, ErrorProb: 0.25},
	)
	inj := NewInjector(app, plan)
	p, faults := inj.ExtraErrorProb(1)
	if p != 0.5 || len(faults) != 1 {
		t.Fatalf("ExtraErrorProb = %v (%v): network errors must not count here", p, faults)
	}
	lat, ep, nf := inj.NetworkPenalty(1)
	if lat != 100_000 || ep != 0.25 || len(nf) != 1 {
		t.Fatalf("NetworkPenalty = %v %v %v", lat, ep, nf)
	}
	// Unaffected service.
	if p, _ := inj.ExtraErrorProb(0); p != 0 {
		t.Fatalf("unaffected service error prob = %v", p)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var inj *Injector
	if m, _ := inj.KernelMultiplier(0, synth.KernelCPU); m != 1 {
		t.Fatal("nil injector multiplier != 1")
	}
	if p, _ := inj.ExtraErrorProb(0); p != 0 {
		t.Fatal("nil injector error prob != 0")
	}
	if lat, p, _ := inj.NetworkPenalty(0); lat != 0 || p != 0 {
		t.Fatal("nil injector network penalty != 0")
	}
	if inj.Plan() != nil {
		t.Fatal("nil injector plan != nil")
	}
}

func TestMakeFaultSeverities(t *testing.T) {
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		ft := AllFaultTypes[i%len(AllFaultTypes)]
		f := makeFault(ft, LevelContainer, "svc", rng)
		if ft == FaultNetwork {
			if f.NetLatencyMicros < 20_000 || f.NetLatencyMicros > 500_000 {
				t.Fatalf("network latency out of range: %d", f.NetLatencyMicros)
			}
			if f.SlowFactor != 0 {
				t.Fatal("network fault has slow factor")
			}
		} else {
			if f.SlowFactor < 4 || f.SlowFactor > 30 {
				t.Fatalf("slow factor out of range: %v", f.SlowFactor)
			}
		}
		if f.ErrorProb <= 0 || f.ErrorProb >= 1 {
			t.Fatalf("error prob out of range: %v", f.ErrorProb)
		}
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Type: FaultCPU, Level: LevelPod, Target: "cart-0"}
	if f.String() != "cpu/pod@cart-0" {
		t.Fatalf("String = %q", f.String())
	}
}
