package synth

import (
	"fmt"
	"math"

	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Mutation operations reproducing the service updates of the paper's §6.4
// (Figure 6): A — slow one mid-level service down 10×; B — remove it;
// C — add a service at level two; D — add three chains of three services
// in the middle of the RPC dependency graph.

// ServiceAtCallDepth returns the index of a service that owns a call at
// the given call depth (0 = root) in the app's largest flow, or -1 if the
// depth is empty. Services that root any flow are skipped so the result is
// always usable with RemoveService (the Figure-6 update sequence slows a
// service with update A and removes the same service with update B).
func (a *App) ServiceAtCallDepth(depth int) int {
	rootOwners := make(map[int]bool)
	for _, f := range a.Flows {
		rootOwners[a.RPCs[f.Root.RPC].Service] = true
	}
	found := -1
	a.Flows[0].Walk(func(c *Call, d int) {
		if d == depth && found < 0 && !rootOwners[a.RPCs[c.RPC].Service] {
			found = a.RPCs[c.RPC].Service
		}
	})
	return found
}

// SlowService multiplies the local processing time of every call owned by
// the service by factor (update A uses factor 10).
func (a *App) SlowService(svcIdx int, factor float64) {
	if factor <= 0 {
		panic("synth: SlowService factor must be positive")
	}
	dMu := math.Log(factor)
	for _, f := range a.Flows {
		f.Walk(func(c *Call, _ int) {
			if a.RPCs[c.RPC].Service == svcIdx {
				for i := range c.Work {
					c.Work[i].Mu += dMu
				}
			}
		})
	}
}

// RemoveService splices every call owned by the service out of every flow:
// the removed call's child stages are merged into the parent's stage list
// at the call's position. Root calls cannot be removed. The service's RPC
// entries remain in the tables (unreferenced), so indexes stay stable.
func (a *App) RemoveService(svcIdx int) error {
	for _, f := range a.Flows {
		if a.RPCs[f.Root.RPC].Service == svcIdx {
			return fmt.Errorf("synth: cannot remove service %d owning flow root %q", svcIdx, f.Name)
		}
	}
	owned := func(c *Call) bool { return a.RPCs[c.RPC].Service == svcIdx }
	for _, f := range a.Flows {
		var rec func(c *Call)
		rec = func(c *Call) {
			var newStages [][]*Call
			for _, stage := range c.Stages {
				var kept []*Call
				for _, child := range stage {
					if owned(child) {
						// Promote the removed call's stages in place.
						for _, sub := range child.Stages {
							if len(kept) > 0 {
								newStages = append(newStages, kept)
								kept = nil
							}
							newStages = append(newStages, sub)
						}
						continue
					}
					kept = append(kept, child)
				}
				if len(kept) > 0 {
					newStages = append(newStages, kept)
				}
			}
			c.Stages = newStages
			// Work segments must match stages+1.
			c.Work = resizeWork(c.Work, len(c.Stages)+1)
			for _, stage := range c.Stages {
				for _, child := range stage {
					rec(child)
				}
			}
		}
		rec(f.Root)
	}
	return nil
}

// resizeWork pads or trims a kernel list to n entries, reusing the last
// kernel's parameters for padding.
func resizeWork(work []Kernel, n int) []Kernel {
	if len(work) == n {
		return work
	}
	if len(work) > n {
		return work[:n]
	}
	last := Kernel{Type: KernelCPU, Mu: 7, Sigma: 0.8}
	if len(work) > 0 {
		last = work[len(work)-1]
	}
	for len(work) < n {
		work = append(work, last)
	}
	return work
}

// AddService creates a new service with one RPC and inserts a call to it
// under a call at depth level-1 of the largest flow (update C uses level
// 2). It returns the new service index.
func (a *App) AddService(name string, level int, seed uint64) int {
	rng := xrand.New(seed)
	svcIdx := len(a.Services)
	a.Services = append(a.Services, &Service{
		Name: name,
		Tier: TierMiddleware,
		Pod:  name + "-0",
		Node: a.Nodes[rng.Intn(len(a.Nodes))],
	})
	rpcID := len(a.RPCs)
	a.RPCs = append(a.RPCs, &RPC{ID: rpcID, Service: svcIdx, Name: "Handle" + name})
	call := &Call{
		RPC:           rpcID,
		TimeoutMicros: timeoutMicros,
		ErrorProb:     baseErrorProb,
		Work:          []Kernel{{Type: KernelCPU, Mu: workMu, Sigma: workSigma}},
	}
	a.insertCallAtDepth(call, level-1, rng)
	return svcIdx
}

// AddChains appends k chains of chainLen new services each, attaching each
// chain under a mid-depth call of the largest flow (update D uses k=3,
// chainLen=3). It returns the indexes of the new services.
func (a *App) AddChains(k, chainLen int, seed uint64) []int {
	rng := xrand.New(seed)
	midDepth := a.Flows[0].MaxCallDepth() / 2
	var added []int
	for c := 0; c < k; c++ {
		var prev *Call
		for l := 0; l < chainLen; l++ {
			name := fmt.Sprintf("chain%d-svc%d-%d", c, l, seed%1000)
			svcIdx := len(a.Services)
			a.Services = append(a.Services, &Service{
				Name: name, Tier: TierMiddleware,
				Pod:  name + "-0",
				Node: a.Nodes[rng.Intn(len(a.Nodes))],
			})
			rpcID := len(a.RPCs)
			a.RPCs = append(a.RPCs, &RPC{ID: rpcID, Service: svcIdx, Name: "Process" + name})
			call := &Call{
				RPC:           rpcID,
				TimeoutMicros: timeoutMicros,
				ErrorProb:     baseErrorProb,
				Work:          []Kernel{{Type: KernelCPU, Mu: 7.0, Sigma: workSigma}},
			}
			if prev == nil {
				a.insertCallAtDepth(call, midDepth, rng)
			} else {
				prev.Stages = append(prev.Stages, []*Call{call})
				prev.Work = resizeWork(prev.Work, len(prev.Stages)+1)
			}
			prev = call
			added = append(added, svcIdx)
		}
	}
	return added
}

// insertCallAtDepth attaches call under a randomly chosen call at the given
// depth of the largest flow (falling back to the root when the depth is
// empty).
func (a *App) insertCallAtDepth(call *Call, depth int, rng *xrand.Rand) {
	var candidates []*Call
	a.Flows[0].Walk(func(c *Call, d int) {
		if d == depth {
			candidates = append(candidates, c)
		}
	})
	parent := a.Flows[0].Root
	if len(candidates) > 0 {
		parent = candidates[rng.Intn(len(candidates))]
	}
	parent.Stages = append(parent.Stages, []*Call{call})
	parent.Work = resizeWork(parent.Work, len(parent.Stages)+1)
}
