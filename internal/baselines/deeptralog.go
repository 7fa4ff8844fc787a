package baselines

import (
	"math"

	"github.com/sleuth-rca/sleuth/internal/cluster"
	"github.com/sleuth-rca/sleuth/internal/features"
	"github.com/sleuth-rca/sleuth/internal/gnn"
	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/trace"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// DeepTraLog reproduces the DeepTraLog comparator (§6.1.2): a gated graph
// neural network encodes each trace into an embedding, trained with a deep
// SVDD objective that encloses normal traces in a minimum hypersphere.
// The paper uses it as the alternative trace-distance metric in Table 3:
// Euclidean distances between embeddings feed the same clustering stage as
// Sleuth's Jaccard metric.
//
// Its failure mode — documented in §6.2 — emerges from the objective: the
// SVDD pull maps many traces near the centre, so traces with different
// root causes land close together and clustering conflates failure modes.
type DeepTraLog struct {
	Epochs int
	Seed   uint64

	net    *gnn.GatedGraphNet
	emb    *features.Embedder
	center []float64
}

// NewDeepTraLog builds the comparator with its defaults.
func NewDeepTraLog(seed uint64) *DeepTraLog {
	return &DeepTraLog{Epochs: 15, Seed: seed}
}

const (
	dtlNodeEmb = 8
	// dtlEmbedDim is the trace-embedding width.
	dtlEmbedDim = 8
	dtlLR       = 1e-3
)

// nodeFeatures encodes a trace's spans for the GGNN.
func (d *DeepTraLog) nodeFeatures(tr *trace.Trace) *tensor.Tensor {
	rows := make([][]float64, tr.Len())
	for i, sp := range tr.Spans {
		e := d.emb.Embed(sp.Service + " " + sp.Name)
		row := make([]float64, 2+len(e))
		row[0] = features.ScaleDuration(sp.Duration())
		if sp.Error {
			row[1] = 1
		}
		copy(row[2:], e)
		rows[i] = row
	}
	return tensor.FromRows(rows)
}

// Embed encodes one trace into the SVDD embedding space.
func (d *DeepTraLog) Embed(tr *trace.Trace) []float64 {
	g := gnn.NewGraph(parentsOf(tr))
	out := d.net.Embed(g, d.nodeFeatures(tr))
	return append([]float64(nil), out.Data...)
}

func parentsOf(tr *trace.Trace) []int {
	p := make([]int, tr.Len())
	for i := range p {
		p[i] = tr.Parent(i)
	}
	return p
}

// Train fits the GGNN with the one-class deep SVDD objective: fix the
// centre as the mean initial embedding, then minimise the mean squared
// distance of embeddings to that centre.
func (d *DeepTraLog) Train(traces []*trace.Trace) {
	rng := xrand.New(d.Seed)
	d.emb = features.NewEmbedder(dtlNodeEmb)
	d.net = gnn.NewGatedGraphNet("dtl", 2+dtlNodeEmb, 16, 3, dtlEmbedDim, rng)

	// Centre from the untrained network (standard deep SVDD init).
	d.center = make([]float64, dtlEmbedDim)
	for _, tr := range traces {
		e := d.Embed(tr)
		for i, v := range e {
			d.center[i] += v
		}
	}
	for i := range d.center {
		d.center[i] /= float64(len(traces))
	}
	centerT := tensor.New(append([]float64(nil), d.center...), 1, dtlEmbedDim)

	opt := nn.NewAdam(d.net, dtlLR)
	order := rng.Perm(len(traces))
	for epoch := 0; epoch < d.Epochs; epoch++ {
		for _, idx := range order {
			tr := traces[idx]
			g := gnn.NewGraph(parentsOf(tr))
			e := d.net.Embed(g, d.nodeFeatures(tr))
			loss := tensor.Sum(tensor.Square(tensor.Sub(e, centerT)))
			opt.ZeroGrad()
			loss.Backward()
			opt.Step()
		}
	}
}

// SVDDScore returns the squared distance of a trace's embedding to the
// hypersphere centre (the anomaly score).
func (d *DeepTraLog) SVDDScore(tr *trace.Trace) float64 {
	e := d.Embed(tr)
	sum := 0.0
	for i, v := range e {
		diff := v - d.center[i]
		sum += diff * diff
	}
	return sum
}

// Distances returns the pairwise Euclidean distance matrix of trace
// embeddings — the drop-in alternative to the Eq. 1 metric in Table 3.
// The matrix is cluster.Matrix's packed upper triangle, so only the i<j
// half is computed or stored; symmetry comes from the layout, not from a
// mirrored second write.
func (d *DeepTraLog) Distances(traces []*trace.Trace) *cluster.Matrix {
	embs := make([][]float64, len(traces))
	for i, tr := range traces {
		embs[i] = d.Embed(tr)
	}
	m := cluster.NewMatrix(len(traces))
	for i := range embs {
		for j := i + 1; j < len(embs); j++ {
			sum := 0.0
			for k := range embs[i] {
				diff := embs[i][k] - embs[j][k]
				sum += diff * diff
			}
			m.Set(i, j, math.Sqrt(sum))
		}
	}
	return m
}
