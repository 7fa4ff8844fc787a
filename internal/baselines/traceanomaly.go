package baselines

import (
	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// TraceAnomaly reproduces the TraceAnomaly baseline (§6.1.2): a variational
// autoencoder over per-trace service-duration vectors detects anomalous
// traces; anomalous spans are identified with the three-sigma rule per
// operation, and the root cause is read off the longest path of anomalous
// spans.
//
// The operation vocabulary — and hence the VAE input width — is fixed by
// the training data, the architectural rigidity that prevents this family
// of models from transferring between applications.
type TraceAnomaly struct {
	// Epochs controls VAE training.
	Epochs int
	Seed   uint64

	vocab   map[string]int
	ops     *opStats
	encoder *nn.MLP
	muHead  *nn.Linear
	lvHead  *nn.Linear
	decoder *nn.MLP
	// reconThreshold is the anomaly cut-off on reconstruction error.
	reconThreshold float64
}

const (
	// taSigma is the n of the n-sigma anomalous-span rule.
	taSigma = 3
	// taLR is the VAE's Adam learning rate.
	taLR = 1e-3
)

// NewTraceAnomaly builds the baseline with its defaults.
func NewTraceAnomaly(seed uint64) *TraceAnomaly {
	return &TraceAnomaly{Epochs: 20, Seed: seed}
}

// Name implements rca.Algorithm.
func (t *TraceAnomaly) Name() string { return "TraceAnomaly" }

// latentDim is the VAE latent width.
const taLatent = 8

// Params exposes the VAE parameters.
func (t *TraceAnomaly) Params() []nn.Param {
	var ps []nn.Param
	for _, m := range []nn.Module{t.encoder, t.muHead, t.lvHead, t.decoder} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// vector encodes a trace over the training vocabulary: mean scaled
// duration per operation, zero where the operation is absent.
func (t *TraceAnomaly) vector(tr *trace.Trace) []float64 {
	v := make([]float64, len(t.vocab))
	counts := make([]float64, len(t.vocab))
	for _, sp := range tr.Spans {
		idx, ok := t.vocab[sp.OpKey()]
		if !ok {
			continue
		}
		mean, std, ok := t.ops.meanStd(sp.OpKey())
		if !ok || std == 0 {
			std = 1
		}
		v[idx] += (float64(sp.Duration()) - mean) / std
		counts[idx]++
	}
	for i := range v {
		if counts[i] > 0 {
			v[i] /= counts[i]
		}
	}
	return v
}

// Prepare implements rca.Algorithm: builds the vocabulary, trains the VAE
// and calibrates the reconstruction threshold.
func (t *TraceAnomaly) Prepare(train []*trace.Trace) error {
	t.ops = newOpStats(2000)
	t.vocab = map[string]int{}
	for _, tr := range train {
		t.ops.add(tr)
		for _, sp := range tr.Spans {
			if _, ok := t.vocab[sp.OpKey()]; !ok {
				t.vocab[sp.OpKey()] = len(t.vocab)
			}
		}
	}
	dim := len(t.vocab)
	rng := xrand.New(t.Seed)
	hidden := 32
	t.encoder = nn.NewMLP("ta.enc", []int{dim, hidden}, nn.Tanh, rng)
	t.encoder.OutAct = nn.Tanh
	t.muHead = nn.NewLinear("ta.mu", hidden, taLatent, rng)
	t.lvHead = nn.NewLinear("ta.lv", hidden, taLatent, rng)
	t.decoder = nn.NewMLP("ta.dec", []int{taLatent, hidden, dim}, nn.Tanh, rng)

	rows := make([][]float64, len(train))
	for i, tr := range train {
		rows[i] = t.vector(tr)
	}
	x := tensor.FromRows(rows)
	opt := nn.NewAdam(t, taLR)
	noise := rng.Split("reparam")
	for epoch := 0; epoch < t.Epochs; epoch++ {
		h := t.encoder.Forward(x)
		mu := t.muHead.Forward(h)
		lv := tensor.Clamp(t.lvHead.Forward(h), -6, 6)
		// Reparameterisation: z = µ + ε·σ.
		eps := tensor.Zeros(mu.Rows(), mu.Cols())
		for i := range eps.Data {
			eps.Data[i] = noise.NormFloat64()
		}
		z := tensor.Add(mu, tensor.Mul(eps, tensor.Exp(tensor.MulScalar(lv, 0.5))))
		recon := t.decoder.Forward(z)
		loss := tensor.Add(tensor.MSE(recon, x), tensor.MulScalar(tensor.KLStandardNormal(mu, lv), 0.01))
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
	}
	// Calibrate the anomaly threshold at the 99th percentile of training
	// reconstruction errors.
	errs := make([]float64, len(train))
	for i := range rows {
		errs[i] = t.reconError(rows[i])
	}
	t.reconThreshold = stats.Percentile(errs, 99)
	return nil
}

// reconError computes the deterministic (µ-path) reconstruction error.
func (t *TraceAnomaly) reconError(row []float64) float64 {
	x := tensor.FromRows([][]float64{row})
	h := t.encoder.Forward(x)
	mu := t.muHead.Forward(h)
	recon := t.decoder.Forward(mu)
	sum := 0.0
	for i := range row {
		d := recon.Data[i] - row[i]
		sum += d * d
	}
	return sum / float64(len(row))
}

// IsAnomalous reports whether the VAE flags the trace.
func (t *TraceAnomaly) IsAnomalous(tr *trace.Trace) bool {
	return t.reconError(t.vector(tr)) > t.reconThreshold
}

// Localize implements rca.Algorithm: three-sigma anomalous spans, then the
// root-to-leaf path containing the most anomalous spans; the deepest
// anomalous span's service on that path is the root cause.
func (t *TraceAnomaly) Localize(tr *trace.Trace, _ float64) []string {
	anomalous := make([]bool, tr.Len())
	for i, sp := range tr.Spans {
		if sp.Error {
			anomalous[i] = true
			continue
		}
		mean, std, ok := t.ops.meanStd(sp.OpKey())
		if !ok {
			continue
		}
		anomalous[i] = stats.NSigma(float64(sp.Duration()), mean, std, taSigma)
	}
	// Longest (most anomalous) root-to-leaf path by DFS.
	bestCount := -1
	bestDeepest := -1
	var dfs func(i, count, deepest int)
	dfs = func(i, count, deepest int) {
		if anomalous[i] {
			count++
			deepest = i
		}
		kids := tr.Children(i)
		if len(kids) == 0 {
			if count > bestCount {
				bestCount = count
				bestDeepest = deepest
			}
			return
		}
		for _, c := range kids {
			dfs(c, count, deepest)
		}
	}
	for _, r := range tr.Roots() {
		dfs(r, 0, -1)
	}
	if bestDeepest < 0 {
		return nil
	}
	return []string{tr.Spans[bestDeepest].Service}
}

// VocabSize returns the VAE input width (grows with the application).
func (t *TraceAnomaly) VocabSize() int { return len(t.vocab) }
