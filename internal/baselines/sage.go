package baselines

import (
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Sage reproduces the Sage baseline (§6.1.2): a graphical variational
// autoencoder whose structure mirrors the RPC dependency graph — one
// conditional VAE per operation predicts that span's duration and error
// from its children's state, and counterfactual queries restore services
// and propagate predictions up the causal DAG.
//
// The defining contrast with Sleuth falls out of this design:
//   - the model grows with the application (one CVAE per operation), so
//     training/inference time and model size scale with app size (Fig. 5);
//   - a new operation has no model, so service updates degrade Sage until
//     a retrain rebuilds the ensemble (Fig. 6);
//   - per-node weights cannot transfer to another application (Fig. 7).
type Sage struct {
	Epochs int
	Seed   uint64

	nodes   map[string]*sageNode
	normals map[string]sageNormal
	global  sageNormal
}

type sageNormal struct {
	medianDur  float64
	medianExcl float64
}

// Per-node architecture and training constants. The architecture is
// deliberately small — the ensemble's cost comes from its count, as in the
// paper.
const (
	sageCond   = 4 // childSum, childMax, exclusive, childErr
	sageLatent = 2
	sageHidden = 8
	sageLR     = 3e-3
	// sageMaxCandidates / sageErrThreshold mirror Sleuth's localisation
	// loop.
	sageMaxCandidates = 5
	sageErrThreshold  = 0.5
	// sageSampleCap bounds per-node training samples.
	sageSampleCap = 400
)

type sageNode struct {
	enc *nn.MLP
	mu  *nn.Linear
	lv  *nn.Linear
	dec *nn.MLP
	// samples rows: cond (sageCond) ++ target (durScaled, err).
	samples [][]float64
}

func (n *sageNode) params() []nn.Param {
	var ps []nn.Param
	for _, m := range []nn.Module{n.enc, n.mu, n.lv, n.dec} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// NewSage builds the baseline with its defaults.
func NewSage(seed uint64) *Sage {
	return &Sage{Epochs: 30, Seed: seed}
}

// Name implements rca.Algorithm.
func (s *Sage) Name() string { return "Sage" }

// NumNodes returns the ensemble size (one CVAE per operation).
func (s *Sage) NumNodes() int { return len(s.nodes) }

// NumParams returns the total ensemble parameter count — linear in the
// application size, unlike Sleuth's fixed model.
func (s *Sage) NumParams() int {
	total := 0
	for _, n := range s.nodes {
		for _, p := range n.params() {
			total += p.T.Numel()
		}
	}
	return total
}

// condOf builds the conditioning vector of span i from child values.
func condOf(tr *trace.Trace, i int, childDur func(j int) float64, childErr func(j int) float64, excl float64) []float64 {
	sum, max, errMax := 0.0, 0.0, 0.0
	for _, j := range tr.Children(i) {
		d := childDur(j)
		sum += d
		if d > max {
			max = d
		}
		if e := childErr(j); e > errMax {
			errMax = e
		}
	}
	return []float64{
		features.ScaleDuration(int64(sum) + 1),
		features.ScaleDuration(int64(max) + 1),
		features.ScaleDuration(int64(excl) + 1),
		errMax,
	}
}

// Prepare implements rca.Algorithm: gathers per-node samples, trains every
// node's CVAE, and computes normal-state medians.
func (s *Sage) Prepare(train []*trace.Trace) error {
	s.nodes = map[string]*sageNode{}
	durSamples := map[string][]float64{}
	exclSamples := map[string][]float64{}
	var allDur, allExcl []float64
	rng := xrand.New(s.Seed)
	for _, tr := range train {
		for i, sp := range tr.Spans {
			k := sp.OpKey()
			node, ok := s.nodes[k]
			if !ok {
				node = s.newNode(k, rng)
				s.nodes[k] = node
			}
			obsDur := func(j int) float64 { return float64(tr.Spans[j].Duration()) }
			obsErr := func(j int) float64 {
				if tr.Spans[j].Error {
					return 1
				}
				return 0
			}
			cond := condOf(tr, i, obsDur, obsErr, float64(tr.ExclusiveDuration(i)))
			target := []float64{features.ScaleDuration(sp.Duration()), 0}
			if sp.Error {
				target[1] = 1
			}
			if len(node.samples) < sageSampleCap {
				node.samples = append(node.samples, append(cond, target...))
			}
			d, e := float64(sp.Duration()), float64(tr.ExclusiveDuration(i))
			durSamples[k] = append(durSamples[k], d)
			exclSamples[k] = append(exclSamples[k], e)
			allDur = append(allDur, d)
			allExcl = append(allExcl, e)
		}
	}
	s.normals = make(map[string]sageNormal, len(durSamples))
	for k := range durSamples {
		s.normals[k] = sageNormal{
			medianDur:  stats.Percentile(durSamples[k], 50),
			medianExcl: stats.Percentile(exclSamples[k], 50),
		}
	}
	s.global = sageNormal{
		medianDur:  stats.Percentile(allDur, 50),
		medianExcl: stats.Percentile(allExcl, 50),
	}
	// Train every node — the loop whose length scales with the app.
	for _, node := range s.nodes {
		s.trainNode(node, rng)
	}
	return nil
}

func (s *Sage) newNode(name string, rng *xrand.Rand) *sageNode {
	r := rng.Split("node-" + name)
	return &sageNode{
		enc: nn.NewMLP("sage.enc", []int{sageCond + 2, sageHidden}, nn.Tanh, r),
		mu:  nn.NewLinear("sage.mu", sageHidden, sageLatent, r),
		lv:  nn.NewLinear("sage.lv", sageHidden, sageLatent, r),
		dec: nn.NewMLP("sage.dec", []int{sageCond + sageLatent, sageHidden, 2}, nn.Tanh, r),
	}
}

// trainNode fits one CVAE by reconstruction + KL.
func (s *Sage) trainNode(node *sageNode, rng *xrand.Rand) {
	if len(node.samples) == 0 {
		return
	}
	full := tensor.FromRows(node.samples)
	cond := tensor.SliceCols(full, 0, sageCond).Detach()
	target := tensor.SliceCols(full, sageCond, sageCond+2).Detach()
	holder := paramsHolder(node.params())
	opt := nn.NewAdam(holder, sageLR)
	noise := rng.Split("reparam")
	for epoch := 0; epoch < s.Epochs; epoch++ {
		h := node.enc.Forward(tensor.ConcatCols(cond, target))
		mu := node.mu.Forward(h)
		lv := tensor.Clamp(node.lv.Forward(h), -6, 6)
		eps := tensor.Zeros(mu.Rows(), mu.Cols())
		for i := range eps.Data {
			eps.Data[i] = noise.NormFloat64()
		}
		z := tensor.Add(mu, tensor.Mul(eps, tensor.Exp(tensor.MulScalar(lv, 0.5))))
		out := node.dec.Forward(tensor.ConcatCols(cond, z))
		durHat := tensor.SliceCols(out, 0, 1)
		errLogit := tensor.SliceCols(out, 1, 2)
		durTarget := tensor.SliceCols(target, 0, 1)
		errTarget := tensor.SliceCols(target, 1, 2)
		loss := tensor.Add(
			tensor.Add(tensor.MSE(durHat, durTarget), tensor.BCEWithLogits(errLogit, errTarget)),
			tensor.MulScalar(tensor.KLStandardNormal(mu, lv), 0.01))
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
	}
}

type paramsHolder []nn.Param

func (p paramsHolder) Params() []nn.Param { return p }

// predict runs a node's decoder with z = 0 (the counterfactual mean path).
func (node *sageNode) predict(cond []float64) (durScaled, errProb float64) {
	in := make([]float64, sageCond+sageLatent)
	copy(in, cond)
	out := node.dec.Forward(tensor.FromRows([][]float64{in}))
	return out.Data[0], 1 / (1 + math.Exp(-out.Data[1]))
}

// normal returns the node's normal statistics with a global fallback.
func (s *Sage) normal(op string) sageNormal {
	if n, ok := s.normals[op]; ok {
		return n
	}
	return s.global
}

// counterfactual recomputes the root state with the restored span set.
func (s *Sage) counterfactual(tr *trace.Trace, restored map[int]bool) (rootDur, rootErr float64) {
	n := tr.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tr.Depth(order[a]) > tr.Depth(order[b]) })
	dur := make([]float64, n)
	errp := make([]float64, n)
	for _, i := range order {
		norm := s.normal(tr.Spans[i].OpKey())
		excl := float64(tr.ExclusiveDuration(i))
		exclErr := 0.0
		if tr.ExclusiveError(i) {
			exclErr = 1
		}
		if restored[i] {
			excl = math.Max(norm.medianExcl, 1)
			exclErr = 0
		}
		if len(tr.Children(i)) == 0 {
			if restored[i] {
				dur[i] = math.Max(norm.medianDur, 1)
			} else {
				dur[i] = math.Max(float64(tr.Spans[i].Duration()), 1)
			}
			errp[i] = exclErr
			continue
		}
		cond := condOf(tr, i,
			func(j int) float64 { return dur[j] },
			func(j int) float64 { return errp[j] },
			excl)
		node, ok := s.nodes[tr.Spans[i].OpKey()]
		if !ok {
			// Unseen operation (service update before retrain): no model
			// exists; fall back to a crude sum prior.
			sum := excl
			for _, j := range tr.Children(i) {
				sum += dur[j]
			}
			dur[i] = sum
			errp[i] = math.Max(exclErr, cond[3])
			continue
		}
		dScaled, e := node.predict(cond)
		dur[i] = math.Max(features.UnscaleDuration(dScaled), 1)
		errp[i] = math.Max(e, exclErr)
	}
	root := tr.Roots()[0]
	return dur[root], errp[root]
}

// Localize implements rca.Algorithm with the same restore-and-check loop
// as Sleuth, driven by the per-node ensemble.
func (s *Sage) Localize(tr *trace.Trace, sloMicros float64) []string {
	type cand struct {
		service string
		score   float64
		spans   []int
	}
	byService := map[string]*cand{}
	get := func(name string) *cand {
		c, ok := byService[name]
		if !ok {
			c = &cand{service: name}
			byService[name] = c
		}
		return c
	}
	for i, sp := range tr.Spans {
		c := get(sp.Service)
		c.spans = append(c.spans, i)
		if sp.Kind == trace.KindClient {
			for _, child := range tr.Children(i) {
				if cs := tr.Spans[child].Service; cs != sp.Service {
					cc := get(cs)
					cc.spans = append(cc.spans, i)
				}
			}
		}
	}
	// Same client-span evidence attribution as Sleuth's localiser: a
	// client span's exclusive error/excess belongs to its callees.
	spanScore := func(i int) float64 {
		sc := 0.0
		if tr.ExclusiveError(i) {
			sc += 3
		}
		norm := s.normal(tr.Spans[i].OpKey())
		if norm.medianExcl > 0 {
			if ratio := float64(tr.ExclusiveDuration(i)) / norm.medianExcl; ratio > 1 {
				sc += math.Log10(ratio)
			}
		}
		return sc
	}
	for i, sp := range tr.Spans {
		sc := spanScore(i)
		if sc == 0 {
			continue
		}
		if sp.Kind == trace.KindClient {
			credited := false
			for _, child := range tr.Children(i) {
				if cs := tr.Spans[child].Service; cs != sp.Service {
					get(cs).score += sc
					credited = true
				}
			}
			if !credited {
				get(sp.Service).score += sc
			}
			continue
		}
		get(sp.Service).score += sc
	}
	cands := make([]cand, 0, len(byService))
	for _, c := range byService {
		cands = append(cands, *c)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].service < cands[b].service
	})
	if len(cands) == 0 {
		return nil
	}
	max := sageMaxCandidates
	if max > len(cands) {
		max = len(cands)
	}
	restored := map[int]bool{}
	var used []string
	for k := 0; k < max; k++ {
		for _, si := range cands[k].spans {
			restored[si] = true
		}
		used = append(used, cands[k].service)
		d, e := s.counterfactual(tr, restored)
		if d <= sloMicros && e < sageErrThreshold {
			sort.Strings(used)
			return used
		}
	}
	return []string{cands[0].service}
}
