// Package core implements the paper's primary contribution: the Sleuth
// causal GNN over trace span DAGs (§3.4) and the counterfactual root-cause
// machinery built on it (§3.5).
//
// The model reconstructs every span's duration and error status from its
// children through domain-informed aggregation:
//
//	Eq. 2  d̂'ᵢ = Σⱼ [ReLU(d'ⱼ-u'ⱼ) - ReLU(d'ⱼ-v'ⱼ)] + d*'ᵢ
//	Eq. 3  êᵢ  = max over children of propagated/duration-induced error, e*ᵢ
//	Eq. 4  hⱼ  = f_Θ[x*ᵢ ∥ (1+ε)xⱼ + Σ_{k∈S(j)} x_k]   (GIN over siblings)
//	Eq. 5  loss = MSE(d̂, d) + BCE(ê, e)
//
// One deliberate deviation from the paper's printed Eq. 3: as written,
// sigmoid(h₂·e) evaluates to 0.5 whenever a child has no error, which would
// floor every internal span's error estimate at 0.5. We gate the propagated
// term by the child error (e·σ(h₂)) and give the duration-induced term a
// learned bias (σ(h₃·d + h₄)), so f_Θ emits five values per span instead of
// four. Both changes preserve the equation's stated semantics — errors
// propagate along the causal DAG and long durations can induce errors
// (timeouts) — while keeping the error head trainable.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/gnn"
	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/par"
	"github.com/sleuth-rca/sleuth/internal/stats"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Variant selects the aggregation architecture.
type Variant string

// Model variants: the purpose-built GIN of §3.4.1 and the vanilla-GCN
// ablation (the paper's Sleuth-GCN baseline).
const (
	VariantGIN Variant = "gin"
	VariantGCN Variant = "gcn"
)

// headDim is the per-span output width of f_Θ: h₀, h₁ (duration window),
// h₂ (error propagation gate), h₃, h₄ (duration-induced error).
const headDim = 5

// smoothFrac scales the softplus smoothing of the Eq. 2 clipping window
// relative to the window position (see forward).
const smoothFrac = 0.05

// Config configures a Model.
type Config struct {
	// EmbeddingDim is the semantic-embedding width (default 32).
	EmbeddingDim int
	// Hidden is the f_Θ hidden width (default 64).
	Hidden int
	// Variant selects GIN (default) or GCN aggregation.
	Variant Variant
	// PlainSum disables the Eq. 2 clipping window (ablation): every child
	// contributes its full duration, as a naive sum-aggregation would.
	PlainSum bool
	// Seed drives weight initialisation.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.EmbeddingDim <= 0 {
		c.EmbeddingDim = features.DefaultEmbeddingDim
	}
	if c.Hidden <= 0 {
		c.Hidden = 64
	}
	if c.Variant == "" {
		c.Variant = VariantGIN
	}
	return c
}

// aggregator abstracts over the GIN/GCN sibling convolutions.
type aggregator interface {
	Forward(g *gnn.Graph, xStar, x *tensor.Tensor) *tensor.Tensor
	Params() []nn.Param
}

// NormalStats is the learned notion of a span operation's normal state —
// the restoration target of counterfactual queries ("duration equal to the
// median and without errors", §3.5).
type NormalStats struct {
	MedianDuration          float64 // µs
	MedianExclusiveDuration float64 // µs
	Count                   int
}

// Model is the Sleuth trace model. Its parameter count is independent of
// any application's RPC graph, which is what makes pre-training and
// transfer possible (§6.5).
type Model struct {
	cfg      Config
	embedder *features.Embedder
	encoder  *features.Encoder
	agg      aggregator

	// normals maps span OpKey → normal-state statistics. These are data
	// statistics, not weights: they are recomputed per application by
	// SetNormals (the paper's storage engine computes them with SQL).
	normals      map[string]NormalStats
	globalNormal NormalStats
}

// NewModel creates a Model with the given configuration.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed)
	emb := features.NewEmbedder(cfg.EmbeddingDim)
	nodeDim := 2 + cfg.EmbeddingDim
	var agg aggregator
	var outLayer *nn.Linear
	switch cfg.Variant {
	case VariantGCN:
		gcn := gnn.NewGCNSiblingConv("sleuth", nodeDim, nodeDim, cfg.Hidden, headDim, rng)
		outLayer = gcn.Out
		agg = gcn
	default:
		gin := gnn.NewGINSiblingConv("sleuth", nodeDim, nodeDim, cfg.Hidden, headDim, rng)
		outLayer = gin.MLP.Layers[len(gin.MLP.Layers)-1]
		agg = gin
	}
	// Domain-informed head initialisation: at init the Eq. 2 window is
	// u' ≈ 0 and v' ≈ 2·10⁶ µs (the request timeout), i.e. a synchronous
	// child contributes its full duration until it times out — the prior
	// the model then refines.
	// h₂ starts positive (child errors propagate) and h₄ strongly
	// negative (long durations do not imply errors until learned).
	outLayer.B.Data[0] = -10 // h₀: u = v·σ(-10) ≈ 0, full contribution
	outLayer.B.Data[1] = 6.3 // h₁: v ≈ 2·10⁶ µs, the request timeout
	outLayer.B.Data[2] = 2   // h₂: σ(2) ≈ 0.88 propagation gate
	outLayer.B.Data[3] = 0   // h₃
	outLayer.B.Data[4] = -4  // h₄: σ(-4) ≈ 0.018 baseline
	return &Model{
		cfg:      cfg,
		embedder: emb,
		encoder:  features.NewEncoder(emb),
		agg:      agg,
		normals:  make(map[string]NormalStats),
	}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Params implements nn.Module.
func (m *Model) Params() []nn.Param { return m.agg.Params() }

// NumParams returns the scalar parameter count — fixed for any app size.
func (m *Model) NumParams() int { return nn.NumParams(m) }

// Encode exposes the feature encoding used by the model.
func (m *Model) Encode(tr *trace.Trace) *features.Encoded { return m.encoder.Encode(tr) }

// prediction bundles the per-span outputs of one forward pass.
type prediction struct {
	// durScaled is the predicted scaled duration per span (Eq. 2, then
	// log-rescaled).
	durScaled *tensor.Tensor // [n,1]
	// errProb is the predicted error probability per span (Eq. 3).
	errProb *tensor.Tensor // [n,1]
}

// forward runs the model on encoded features. When override is non-nil it
// supplies modified X/XStar matrices (counterfactual queries); otherwise
// the encoded observation is used.
func (m *Model) forward(enc *features.Encoded, x, xStar *tensor.Tensor) prediction {
	g := enc.Graph()
	h := m.agg.Forward(g, xStar, x) // [n, headDim]

	dScaled := tensor.SliceCols(x, 0, 1) // observed scaled durations
	eFlag := tensor.SliceCols(x, 1, 2)   // observed error flags
	dStarScaled := tensor.SliceCols(xStar, 0, 1)
	eStar := tensor.SliceCols(xStar, 1, 2)

	// --- Eq. 2: duration propagation in unscaled (µs) space.
	// The paper parameterises the clipping window as u = h₁-h₀, v = h₁+h₀
	// with non-negative h'. In µs space that difference is hypersensitive:
	// any O(1) noise between two log-scale head outputs swings u by whole
	// decades, which freezes training at init. We keep the guarantee
	// 0 ≤ u ≤ v with an equivalent but well-conditioned form:
	// v' = 10^h₁ (clamped to [10⁻², 10⁸] µs) and u' = v'·σ(h₀), so the
	// upper edge moves in decades and the lower edge as a smooth fraction
	// of it. σ(h₀)→1 recovers u = v, the async no-contribution case.
	v := tensor.Pow10(tensor.Clamp(tensor.SliceCols(h, 1, 2), -2, 8))
	u := tensor.Mul(v, tensor.Sigmoid(tensor.SliceCols(h, 0, 1)))
	dPrime := tensor.Pow10(tensor.AddScalar(dScaled, features.DurLogMean)) // µs
	// Smoothed ClippedReLU: softplus((d-u)/s)·s - softplus((d-v)/s)·s with
	// scale s tied to the child's own duration, so the smoothing error is a
	// few percent of d at worst. As s→0 this is exactly the paper's
	// ReLU(d-u) - ReLU(d-v); the smoothing keeps gradients alive when a
	// child's duration falls just outside [u, v] (the hard version kills
	// both ReLUs there and the window can never recover during training).
	s := tensor.AddScalar(tensor.MulScalar(dPrime, smoothFrac), 1)
	contrib := tensor.Mul(tensor.Sub(
		tensor.Softplus(tensor.Div(tensor.Sub(dPrime, u), s)),
		tensor.Softplus(tensor.Div(tensor.Sub(dPrime, v), s))), s)
	if m.cfg.PlainSum {
		// Ablation: ignore the learned window entirely.
		contrib = dPrime
	}
	// Sum contributions over each sibling group, then route to parents.
	groupSum := tensor.SegmentSum(contrib, g.Groups(), g.NumGroups())
	childSum := g.GatherChildGroups(groupSum, 0)
	dStarPrime := tensor.Pow10(tensor.AddScalar(dStarScaled, features.DurLogMean))
	dHatPrime := tensor.Add(childSum, dStarPrime)
	dHatScaled := tensor.AddScalar(tensor.Log10(dHatPrime), -features.DurLogMean)

	// --- Eq. 3: error propagation by max over children.
	h2 := tensor.SliceCols(h, 2, 3)
	h3 := tensor.SliceCols(h, 3, 4)
	h4 := tensor.SliceCols(h, 4, 5)
	propagated := tensor.Mul(eFlag, tensor.Sigmoid(h2))
	durInduced := tensor.Sigmoid(tensor.Add(tensor.Mul(h3, dScaled), h4))
	childTerm := tensor.Max2(propagated, durInduced)
	groupMax := tensor.SegmentMax(childTerm, g.Groups(), g.NumGroups(), 0)
	childMax := g.GatherChildGroups(groupMax, 0)
	eHat := tensor.Max2(childMax, eStar)

	return prediction{durScaled: dHatScaled, errProb: eHat}
}

// inputs returns the trace's cached feature tensors, re-rooted into ar when
// an arena is installed. The arena views carry no history and no gradient
// requirement; their only job is to make every downstream op draw its
// allocations from ar (results inherit the arena of their parents).
func inputs(enc *features.Encoded, ar *tensor.Arena) (x, xStar *tensor.Tensor) {
	x, xStar = enc.Tensors()
	if ar != nil {
		x, xStar = ar.View(x), ar.View(xStar)
	}
	return x, xStar
}

// forwardLoss is the tape kernel: a single forward pass over enc plus the
// Eq. 5 loss built on the same tape, all drawn from ar (nil = heap). Train
// backpropagates through the returned loss; ScoreBatch reads predictions
// and loss off it only for an aggregator without a row kernel (GCN), and
// it is the reference the row scoring pass is held to bit for bit.
func (m *Model) forwardLoss(enc *features.Encoded, ar *tensor.Arena) (prediction, *tensor.Tensor) {
	x, xStar := inputs(enc, ar)
	pred := m.forward(enc, x, xStar)
	dTarget := tensor.SliceCols(x, 0, 1)
	eTarget := tensor.SliceCols(x, 1, 2)
	return pred, tensor.Add(tensor.MSE(pred.durScaled, dTarget), tensor.BCE(pred.errProb, eTarget))
}

// TrainOptions tunes Train and FineTune.
type TrainOptions struct {
	Epochs       int
	LearningRate float64
	// BatchSize is the number of traces whose gradients are averaged into
	// one clip+Adam step (mini-batch SGD, §3.4). 0 selects 1 — the paper's
	// per-trace updates.
	BatchSize int
	// Seed shuffles the training order.
	Seed uint64
}

// gradClip caps the global gradient norm of each training step.
const gradClip = 5

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 5
	}
	if o.LearningRate == 0 {
		o.LearningRate = 1e-3
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	return o
}

// TrainStats reports a training run.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
	Traces    int
}

// replica returns a model whose parameters alias m's data storage but own
// private gradient buffers — the per-worker view of the data-parallel
// trainer. Replicas observe m's weight updates immediately; they must only
// run forward/backward passes, never optimizer steps.
func (m *Model) replica() *Model {
	r := NewModel(m.cfg)
	if err := nn.AliasParams(r, m); err != nil {
		// Identical architecture by construction; a mismatch is a bug.
		panic(err)
	}
	return r
}

// Train fits the model on the traces (unsupervised reconstruction, §3.4)
// and refreshes the normal-state statistics from the same data.
//
// Training is data-parallel mini-batch SGD: each batch fans out on
// par.For, every worker goroutine builds independent tapes over its own
// weight-aliased replica, per-trace gradients are captured into per-sample
// buffers and reduced in batch order into the master gradients, and one
// clip+Adam step applies the mean. Because the reduction order is fixed by
// batch position — not by worker — the final weights and losses are
// bit-identical for any GOMAXPROCS. BatchSize=1 reproduces the previous
// sequential per-trace SGD exactly.
func (m *Model) Train(traces []*trace.Trace, opts TrainOptions) (TrainStats, error) {
	if len(traces) == 0 {
		return TrainStats{}, errors.New("core: no training traces")
	}
	opts = opts.withDefaults()
	// The per-epoch loss and gradient-norm series the training pack's rules
	// read; both nil (each use a nil check) when observability is off.
	lossSeries := obs.S("core.train.epoch.loss")
	gradSeries := obs.S("core.train.epoch.grad_norm")
	m.SetNormals(traces)
	encs := m.encoder.EncodeAll(traces)
	opt := nn.NewAdam(m, opts.LearningRate)
	rng := xrand.New(opts.Seed)

	batchSize := opts.BatchSize
	if batchSize > len(encs) {
		batchSize = len(encs)
	}
	workers := par.Workers(batchSize)
	replicas := make([]*Model, workers)
	replicaParams := make([][]nn.Param, workers)
	arenas := make([]*tensor.Arena, workers)
	for w := range replicas {
		replicas[w] = m.replica()
		replicaParams[w] = replicas[w].Params()
		arenas[w] = tensor.NewArena()
	}
	buffers := make([]*nn.GradBuffer, batchSize)
	for i := range buffers {
		buffers[i] = nn.NewGradBuffer(m)
	}
	losses := make([]float64, batchSize)

	var lastMean float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		order := rng.Perm(len(encs))
		total := 0.0
		gradSum := 0.0
		nBatches := 0
		for start := 0; start < len(order); start += batchSize {
			end := start + batchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			par.For(len(batch), func(w, bi int) {
				ps, ar := replicaParams[w], arenas[w]
				nn.ZeroGradsOf(ps)
				_, loss := replicas[w].forwardLoss(encs[batch[bi]], ar)
				loss.Backward()
				buffers[bi].CaptureParams(ps)
				losses[bi] = loss.Item()
				// Everything the tape allocated for this sample —
				// intermediates, gradients of non-leaves, the loss itself —
				// is recycled here. Leaf (parameter) gradients live on the
				// heap and were captured above.
				ar.Reset()
			})
			opt.ZeroGrad()
			nn.ReduceGradBuffers(m, buffers[:len(batch)], 1/float64(len(batch)))
			gradSum += nn.ClipGradNorm(m, gradClip)
			opt.Step()
			for _, l := range losses[:len(batch)] {
				total += l
			}
			nBatches++
		}
		lastMean = total / float64(len(encs))
		if math.IsNaN(lastMean) {
			return TrainStats{}, fmt.Errorf("core: loss diverged at epoch %d", epoch)
		}
		lossSeries.Append(lastMean)
		gradSeries.Append(gradSum / float64(nBatches))
	}
	return TrainStats{Epochs: opts.Epochs, FinalLoss: lastMean, Traces: len(traces)}, nil
}

// FineTune adapts a pre-trained model to a new application with a few
// samples (§6.5): a short, low-rate training pass plus normal-state
// statistics from the new data.
func (m *Model) FineTune(traces []*trace.Trace, opts TrainOptions) (TrainStats, error) {
	if opts.Epochs <= 0 {
		opts.Epochs = 2
	}
	if opts.LearningRate == 0 {
		opts.LearningRate = 3e-4
	}
	return m.Train(traces, opts)
}

// opRef identifies a span operation without building its OpKey string —
// SetNormals groups by field comparison and only materialises the key
// string once per distinct operation.
type opRef struct {
	service, name string
	kind          trace.Kind
}

func (a opRef) less(b opRef) bool {
	if a.service != b.service {
		return a.service < b.service
	}
	if a.name != b.name {
		return a.name < b.name
	}
	return a.kind < b.kind
}

// SetNormals (re)computes per-operation normal-state statistics from
// fault-free traces. Zero-shot transfer calls this with target-application
// traces without touching the weights.
//
// The computation is sort-and-scan over flat arrays rather than maps of
// growing slices: one sample record per span, sorted by operation, with
// medians taken over in-place-sorted runs. Allocation is O(distinct ops),
// not O(spans) — SetNormals runs on every Train call, so it shares the hot
// path's allocation budget.
func (m *Model) SetNormals(traces []*trace.Trace) {
	total := 0
	for _, tr := range traces {
		total += len(tr.Spans)
	}
	refs := make([]opRef, total)
	durs := make([]float64, total)
	excls := make([]float64, total)
	order := make([]int, total)
	i := 0
	for _, tr := range traces {
		for si, s := range tr.Spans {
			refs[i] = opRef{service: s.Service, name: s.Name, kind: s.Kind}
			durs[i] = float64(s.Duration())
			excls[i] = float64(tr.ExclusiveDuration(si))
			order[i] = i
			i++
		}
	}
	sort.Slice(order, func(a, b int) bool { return refs[order[a]].less(refs[order[b]]) })
	// Permute samples into operation-contiguous runs so each run can be
	// median'd by sorting in place.
	pd := make([]float64, total)
	pe := make([]float64, total)
	for j, src := range order {
		pd[j] = durs[src]
		pe[j] = excls[src]
	}
	m.normals = make(map[string]NormalStats)
	for start := 0; start < total; {
		end := start + 1
		ref := refs[order[start]]
		for end < total && refs[order[end]] == ref {
			end++
		}
		rd, re := pd[start:end], pe[start:end]
		sort.Float64s(rd)
		sort.Float64s(re)
		key := ref.service + "\x1f" + ref.name + "\x1f" + string(ref.kind)
		m.normals[key] = NormalStats{
			MedianDuration:          stats.PercentileSorted(rd, 50),
			MedianExclusiveDuration: stats.PercentileSorted(re, 50),
			Count:                   end - start,
		}
		start = end
	}
	sort.Float64s(durs)
	sort.Float64s(excls)
	m.globalNormal = NormalStats{
		MedianDuration:          stats.PercentileSorted(durs, 50),
		MedianExclusiveDuration: stats.PercentileSorted(excls, 50),
		Count:                   total,
	}
}

// normalShrinkCount is the sample count below which per-operation medians
// are shrunk toward the global median — sparse operations otherwise make
// candidate ranking noisy.
const normalShrinkCount = 8

// Normal returns the normal-state statistics for a span operation, falling
// back to the global median for operations never seen in normal data.
// Operations with few samples are shrunk toward the global statistics.
func (m *Model) Normal(opKey string) NormalStats {
	n, ok := m.normals[opKey]
	return m.shrunk(n, ok)
}

// shrunk is Normal's fallback and shrinkage applied to a normals-map read.
func (m *Model) shrunk(n NormalStats, ok bool) NormalStats {
	if !ok || n.Count == 0 {
		return m.globalNormal
	}
	if n.Count >= normalShrinkCount {
		return n
	}
	w := float64(n.Count) / normalShrinkCount
	return NormalStats{
		MedianDuration:          w*n.MedianDuration + (1-w)*m.globalNormal.MedianDuration,
		MedianExclusiveDuration: w*n.MedianExclusiveDuration + (1-w)*m.globalNormal.MedianExclusiveDuration,
		Count:                   n.Count,
	}
}

// SpanNormals returns Normal(tr.Spans[i].OpKey()) for every span of tr,
// written into dst (reused when its capacity suffices). The keys are built
// in one reused buffer, so a warm call allocates nothing.
func (m *Model) SpanNormals(tr *trace.Trace, dst []NormalStats) []NormalStats {
	dst = resize(dst, tr.Len())
	var buf [128]byte
	key := buf[:0]
	for i, sp := range tr.Spans {
		key = sp.AppendOpKey(key[:0])
		n, ok := m.normals[string(key)]
		dst[i] = m.shrunk(n, ok)
	}
	return dst
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NormalsSize returns the number of distinct operations with statistics.
func (m *Model) NormalsSize() int { return len(m.normals) }
