// Package gnn provides graph neural-network building blocks over the
// tensor autodiff engine: a graph batch representation derived from trace
// parent pointers, the sibling-group GIN convolution of the paper's Eq. 4,
// a vanilla GCN variant (the Sleuth-GCN baseline), and a gated graph
// network (the DeepTraLog clustering comparator's encoder).
//
// The key property motivating GNNs in the paper holds here by construction:
// every layer aggregates neighbours with permutation-invariant reductions
// (segment sum / mean / max), so one parameter set serves any RPC topology.
package gnn

import (
	"github.com/sleuth-rca/sleuth/internal/nn"
	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Graph is the structural view of one trace (or any forest): a parent
// pointer per node, plus derived sibling groupings. Node IDs are dense
// indexes aligned with feature-matrix rows.
type Graph struct {
	// Parent[i] is node i's parent index, or -1 for roots.
	Parent []int
	// group[i] is the sibling-group ID of node i: children of the same
	// parent share a group; all roots share a dedicated group.
	group   []int
	nGroups int

	// Derived index caches. Traces are immutable once assembled, so every
	// per-step consumer (sibling convolutions, the aggregation layer's
	// child-group gathers) reads these precomputed arrays instead of
	// rebuilding maps on each forward pass. All are populated by Reset.
	groupCount []int // nodes per group
	childGroup []int // per node: group ID of its children, -1 for leaves
	// parentIdx is the gather index for ParentFeatures: node's parent row,
	// with roots mapped to the sentinel row appended at index n.
	parentIdx []int
	// childGatherIdx is childGroup with leaves mapped to the sentinel row
	// at index nGroups, ready for GatherChildGroups.
	childGatherIdx []int
	// groupStart/groupItems form a CSR index of group membership: the
	// members of group g are groupItems[groupStart[g]:groupStart[g+1]], in
	// ascending node order — the accumulation order SegmentSum uses, which
	// incremental per-group recomputation must reproduce exactly.
	groupStart []int
	groupItems []int
}

// NewGraph builds a Graph from parent pointers and precomputes every
// derived index the convolutions need. It panics on out-of-range parents
// (cycle detection belongs to trace assembly, which runs first).
func NewGraph(parent []int) *Graph { return new(Graph).Reset(parent) }

// Reset rebuilds g over new parent pointers, reusing the capacity of its
// index arrays, and returns g — NewGraph is Reset on a zero Graph, so a
// graph recycled across traces costs no allocation once its arrays are
// large enough. Slices previously returned by g's accessors are
// invalidated. It panics on out-of-range parents.
func (g *Graph) Reset(parent []int) *Graph {
	n := len(parent)
	g.Parent = append(g.Parent[:0], parent...)
	g.group = resize(g.group, n)
	g.childGroup = resize(g.childGroup, n)
	g.childGatherIdx = resize(g.childGatherIdx, n)
	g.parentIdx = resize(g.parentIdx, n)
	g.groupItems = resize(g.groupItems, n)
	g.nGroups = 0
	// Group IDs go to parents in order of first appearance; childGroup[p]
	// doubles as the parent → group lookup while the groups are assigned.
	for i := range g.childGroup {
		g.childGroup[i] = -1
	}
	rootGroup := -1
	for i, p := range parent {
		if p < -1 || p >= n {
			panic("gnn: parent index out of range")
		}
		slot := &rootGroup
		g.parentIdx[i] = n // roots gather the sentinel row
		if p >= 0 {
			slot = &g.childGroup[p]
			g.parentIdx[i] = p
		}
		if *slot < 0 {
			*slot = g.nGroups
			g.nGroups++
		}
		g.group[i] = *slot
	}
	for i, cg := range g.childGroup {
		g.childGatherIdx[i] = cg
		if cg < 0 {
			g.childGatherIdx[i] = g.nGroups
		}
	}
	g.groupCount = resize(g.groupCount, g.nGroups)
	clear(g.groupCount)
	for _, gid := range g.group {
		g.groupCount[gid]++
	}
	g.groupStart = resize(g.groupStart, g.nGroups+1)
	g.groupStart[0] = 0
	for gid, c := range g.groupCount {
		g.groupStart[gid+1] = g.groupStart[gid] + c
	}
	// Fill the CSR index with groupCount as the per-group cursor; the pass
	// counts every group back up to its size.
	clear(g.groupCount)
	for i, gid := range g.group {
		g.groupItems[g.groupStart[gid]+g.groupCount[gid]] = i
		g.groupCount[gid]++
	}
	return g
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// GroupMembers returns the node indexes of group gid in ascending order.
// The slice aliases the graph's CSR index — callers must not mutate it.
func (g *Graph) GroupMembers(gid int) []int {
	return g.groupItems[g.groupStart[gid]:g.groupStart[gid+1]]
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Parent) }

// NumGroups returns the number of sibling groups.
func (g *Graph) NumGroups() int { return g.nGroups }

// Groups returns the sibling-group ID of each node.
func (g *Graph) Groups() []int { return g.group }

// SiblingSum returns, for every node j, the feature sum over its sibling
// group excluding j itself: Σ_{k∈S(j)} x_k. Gradients flow through.
func (g *Graph) SiblingSum(x *tensor.Tensor) *tensor.Tensor {
	groupSum := tensor.SegmentSum(x, g.group, g.nGroups) // [G, d]
	perNode := tensor.IndexRows(groupSum, g.group)       // [n, d]
	return tensor.Sub(perNode, x)
}

// GroupCount returns the number of nodes in each group. The slice is the
// graph's cached copy — callers must not mutate it.
func (g *Graph) GroupCount() []int { return g.groupCount }

// ParentFeatures returns, for every node j, the feature row of j's parent,
// with zeros for roots. Gradients flow back to the parent rows. The gather
// index is precomputed and the sentinel zero row draws from x's arena.
func (g *Graph) ParentFeatures(x *tensor.Tensor) *tensor.Tensor {
	zero := tensor.NewIn(tensor.ArenaOf(x), 1, x.Cols())
	padded := concatRows(x, zero)
	return tensor.IndexRows(padded, g.parentIdx)
}

// concatRows stacks two matrices with equal column counts vertically,
// keeping gradients flowing to both.
func concatRows(a, b *tensor.Tensor) *tensor.Tensor {
	return tensor.ConcatRows(a, b)
}

// GatherChildGroups gathers per-group rows of vals (shape [NumGroups, d])
// back to the parent node of each group, substituting a constant fallback
// row for leaves, over the precomputed childGatherIdx — the zero-allocation
// path of the aggregation layer's per-step gathers.
func (g *Graph) GatherChildGroups(vals *tensor.Tensor, fallback float64) *tensor.Tensor {
	padded := concatRows(vals, tensor.FullIn(tensor.ArenaOf(vals), fallback, 1, vals.Cols()))
	return tensor.IndexRows(padded, g.childGatherIdx)
}

// GINSiblingConv implements the aggregation of the paper's Eq. 4:
//
//	h_j = f_Θ[ x*_i ∥ (1+ε)·x_j + Σ_{k∈S(j)} x_k ]
//
// where i is j's parent, S(j) the sibling set, ε a learnable scalar and
// f_Θ an MLP. The parent contributes its exclusive-state features x*.
type GINSiblingConv struct {
	Eps *tensor.Tensor // learnable ε, shape [1]
	MLP *nn.MLP
	// parentDim and nodeDim record expected input widths for validation.
	parentDim, nodeDim int
}

// NewGINSiblingConv creates the convolution. parentDim is the width of the
// parent exclusive-feature rows, nodeDim the width of node feature rows,
// hidden the MLP hidden width and out the output width.
func NewGINSiblingConv(name string, parentDim, nodeDim, hidden, out int, rng *xrand.Rand) *GINSiblingConv {
	return &GINSiblingConv{
		Eps:       tensor.Zeros(1).RequireGrad(),
		MLP:       nn.NewMLP(name+".mlp", []int{parentDim + nodeDim, hidden, out}, nn.ReLU, rng),
		parentDim: parentDim,
		nodeDim:   nodeDim,
	}
}

// Forward computes h for every node. xStar carries the exclusive-state
// features consumed through the parent, x the node features.
func (c *GINSiblingConv) Forward(g *Graph, xStar, x *tensor.Tensor) *tensor.Tensor {
	if xStar.Cols() != c.parentDim || x.Cols() != c.nodeDim {
		panic("gnn: GINSiblingConv feature width mismatch")
	}
	parentX := g.ParentFeatures(xStar) // [n, parentDim]
	// (1+ε)·x_j — ε is a heap parameter, so the intermediate is placed on
	// x's arena explicitly; inheriting would leave a per-step heap op.
	selfTerm := tensor.Mul(x, tensor.AddScalarIn(tensor.ArenaOf(x), c.Eps, 1))
	agg := tensor.Add(selfTerm, g.SiblingSum(x))          // + Σ siblings
	return c.MLP.Forward(tensor.ConcatCols(parentX, agg)) // f_Θ[· ∥ ·]
}

// Params implements nn.Module.
func (c *GINSiblingConv) Params() []nn.Param {
	ps := []nn.Param{{Name: "gin.eps", T: c.Eps}}
	return append(ps, c.MLP.Params()...)
}

// GCNSiblingConv is the vanilla-GCN counterpart used by the Sleuth-GCN
// baseline: degree-normalised mean aggregation over the sibling group
// (including self), no separate self weight, two stacked layers — the
// heavier architecture responsible for the paper's observed 1.8-1.9×
// slowdown versus the purpose-built GIN.
type GCNSiblingConv struct {
	L1, L2    *nn.Linear
	Out       *nn.Linear
	parentDim int
	nodeDim   int
}

// NewGCNSiblingConv creates the two-layer GCN aggregator.
func NewGCNSiblingConv(name string, parentDim, nodeDim, hidden, out int, rng *xrand.Rand) *GCNSiblingConv {
	return &GCNSiblingConv{
		L1:        nn.NewLinear(name+".l1", parentDim+nodeDim, hidden, rng),
		L2:        nn.NewLinear(name+".l2", hidden, hidden, rng),
		Out:       nn.NewLinear(name+".out", hidden, out, rng),
		parentDim: parentDim,
		nodeDim:   nodeDim,
	}
}

// Forward computes h for every node with normalised mean aggregation.
func (c *GCNSiblingConv) Forward(g *Graph, xStar, x *tensor.Tensor) *tensor.Tensor {
	if xStar.Cols() != c.parentDim || x.Cols() != c.nodeDim {
		panic("gnn: GCNSiblingConv feature width mismatch")
	}
	mean := c.groupMean(g, x)
	h := c.L1.ForwardReLU(tensor.ConcatCols(g.ParentFeatures(xStar), mean))
	// Second aggregation round over the same sibling structure.
	h = c.L2.ForwardReLU(c.groupMean(g, h))
	return c.Out.Forward(h)
}

// groupMean returns for each node the mean feature of its sibling group
// (self included), the D⁻¹A aggregation of a vanilla GCN on the sibling
// clique.
func (c *GCNSiblingConv) groupMean(g *Graph, x *tensor.Tensor) *tensor.Tensor {
	ar := tensor.ArenaOf(x)
	sum := tensor.SegmentSum(x, g.Groups(), g.NumGroups())
	counts := g.GroupCount()
	inv := tensor.NewIn(ar, g.NumGroups(), 1)
	for i, c := range counts {
		if c > 0 {
			inv.Data[i] = 1 / float64(c)
		}
	}
	scaled := tensor.Mul(sum, tensor.MatMul(inv, tensor.FullIn(ar, 1, 1, x.Cols())))
	return tensor.IndexRows(scaled, g.Groups())
}

// Params implements nn.Module.
func (c *GCNSiblingConv) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, c.L1.Params()...)
	ps = append(ps, c.L2.Params()...)
	ps = append(ps, c.Out.Params()...)
	return ps
}

// GatedGraphNet is a GRU-style gated GNN over child→parent edges with a
// mean-pooled graph readout, standing in for DeepTraLog's GGNN encoder.
type GatedGraphNet struct {
	In    *nn.Linear
	Wz    *nn.Linear
	Uz    *nn.Linear
	Wr    *nn.Linear
	Ur    *nn.Linear
	Wh    *nn.Linear
	Uh    *nn.Linear
	Read  *nn.Linear
	Steps int
	dim   int
}

// NewGatedGraphNet creates a gated GNN with the given hidden size, message
// passing steps, and embedding (readout) size.
func NewGatedGraphNet(name string, inDim, hidden, steps, embed int, rng *xrand.Rand) *GatedGraphNet {
	return &GatedGraphNet{
		In:    nn.NewLinear(name+".in", inDim, hidden, rng),
		Wz:    nn.NewLinear(name+".wz", hidden, hidden, rng),
		Uz:    nn.NewLinear(name+".uz", hidden, hidden, rng),
		Wr:    nn.NewLinear(name+".wr", hidden, hidden, rng),
		Ur:    nn.NewLinear(name+".ur", hidden, hidden, rng),
		Wh:    nn.NewLinear(name+".wh", hidden, hidden, rng),
		Uh:    nn.NewLinear(name+".uh", hidden, hidden, rng),
		Read:  nn.NewLinear(name+".read", hidden, embed, rng),
		Steps: steps,
		dim:   hidden,
	}
}

// Embed encodes a graph with node features x into a single embedding row.
func (g2 *GatedGraphNet) Embed(g *Graph, x *tensor.Tensor) *tensor.Tensor {
	h := tensor.Tanh(g2.In.Forward(x))
	n := g.N()
	// Messages flow child → parent (the causal direction of anomalies).
	childIdx := make([]int, 0, n)
	parentSeg := make([]int, 0, n)
	for i, p := range g.Parent {
		if p >= 0 {
			childIdx = append(childIdx, i)
			parentSeg = append(parentSeg, p)
		}
	}
	for step := 0; step < g2.Steps; step++ {
		var msg *tensor.Tensor
		if len(childIdx) > 0 {
			msgs := tensor.IndexRows(h, childIdx)
			msg = tensor.SegmentSum(msgs, parentSeg, n)
		} else {
			msg = tensor.Zeros(n, g2.dim)
		}
		z := tensor.Sigmoid(tensor.Add(g2.Wz.Forward(msg), g2.Uz.Forward(h)))
		r := tensor.Sigmoid(tensor.Add(g2.Wr.Forward(msg), g2.Ur.Forward(h)))
		cand := tensor.Tanh(tensor.Add(g2.Wh.Forward(msg), g2.Uh.Forward(tensor.Mul(r, h))))
		// h = (1-z)·h + z·cand
		h = tensor.Add(tensor.Mul(tensor.AddScalar(tensor.Neg(z), 1), h), tensor.Mul(z, cand))
	}
	// Mean pooling over nodes, then readout.
	seg := make([]int, n)
	pooled := tensor.MulScalar(tensor.SegmentSum(h, seg, 1), 1/float64(n))
	return g2.Read.Forward(pooled)
}

// Params implements nn.Module.
func (g2 *GatedGraphNet) Params() []nn.Param {
	var ps []nn.Param
	for _, l := range []*nn.Linear{g2.In, g2.Wz, g2.Uz, g2.Wr, g2.Ur, g2.Wh, g2.Uh, g2.Read} {
		ps = append(ps, l.Params()...)
	}
	return ps
}
