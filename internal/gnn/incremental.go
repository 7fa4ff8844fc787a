package gnn

import (
	"sort"

	"github.com/sleuth-rca/sleuth/internal/obs"
	"github.com/sleuth-rca/sleuth/internal/tensor"
)

// GINIncremental evaluates one GINSiblingConv forward over a fixed graph
// without a tape and then recomputes only the output rows whose inputs
// changed. The convolution is row-local once the sibling-group sums are
// known: row j reads its parent's xStar row, its own x row and its group's
// sum, then runs the MLP on that single concatenated row. A feature edit
// at node j therefore invalidates exactly the members of j's sibling group
// (they share the group sum) and j's children (they read xStar[j] as the
// parent term) — for trace graphs a handful of rows out of hundreds.
//
// Bit-identity with the tape Forward is structural, not approximate: group
// sums are accumulated in SegmentSum's member order, row inputs are
// assembled with the same expression shape the tensor ops evaluate, and
// the MLP rows run the same fused kernel via nn.(*MLP).ForwardRow —
// TestPrimeMatchesTapeForward gates Prime against Forward and SegmentSum,
// and the core counterfactual-session equivalence test gates the whole
// engine.
//
// A GINIncremental is bound to one graph and not safe for concurrent use.
// ResetIncremental rebinds it to another graph, keeping its buffers.
type GINIncremental struct {
	c *GINSiblingConv
	g *Graph

	groupSum []float64      // [nGroups × nodeDim] cached sibling-group sums
	h        *tensor.Tensor // [n × outDim] cached forward output

	in       []float64 // MLP input rows [n × (parentDim+nodeDim)]
	sa, sb   []float64 // MLP ping-pong scratch, [n × MaxWidth]
	out      []float64 // Update's MLP output rows [n × outDim], scattered into h
	mark     []bool    // per-row affected flags
	gmark    []bool    // per-group recompute flags
	affected []int     // reused affected-row list
}

// ResetIncremental binds s to the convolution over g, reusing s's buffers
// where they are large enough (a nil s gets fresh ones), and returns it —
// or nil when the MLP configuration has no row-exact kernel (callers then
// fall back to full forwards). Prime must run before Update.
func (c *GINSiblingConv) ResetIncremental(s *GINIncremental, g *Graph) *GINIncremental {
	if !c.MLP.RowCompatible() {
		return nil
	}
	if s == nil {
		s = new(GINIncremental)
	}
	n := g.N()
	outDim := c.MLP.Layers[len(c.MLP.Layers)-1].Out()
	s.c, s.g = c, g
	s.groupSum = resize(s.groupSum, g.nGroups*c.nodeDim)
	if s.h == nil {
		s.h = tensor.Zeros(n, outDim)
	} else {
		s.h.Data = resize(s.h.Data, n*outDim)
		s.h.Shape[0], s.h.Shape[1] = n, outDim
	}
	s.in = resize(s.in, n*(c.parentDim+c.nodeDim))
	s.sa = resize(s.sa, n*c.MLP.MaxWidth())
	s.sb = resize(s.sb, n*c.MLP.MaxWidth())
	s.out = resize(s.out, n*outDim)
	s.mark = resize(s.mark, n)
	clear(s.mark)
	s.gmark = resize(s.gmark, g.nGroups)
	clear(s.gmark)
	s.affected = s.affected[:0]
	return s
}

// Prime evaluates the convolution on every row and caches the output and
// the sibling-group sums in evaluator-owned buffers (xStar/x are read,
// never retained). The returned tensor is the cached h — later Update
// calls mutate its rows in place. No tape is built: the group sums
// accumulate in SegmentSum's ascending-node order, each input row is
// assembled by inputRow exactly as Update assembles it, and the MLP runs
// once over all n rows through the row kernel, so h equals the tape
// Forward bit for bit.
func (s *GINIncremental) Prime(xStar, x *tensor.Tensor) *tensor.Tensor {
	if xStar.Cols() != s.c.parentDim || x.Cols() != s.c.nodeDim {
		panic("gnn: GINIncremental feature width mismatch")
	}
	for gid := 0; gid < s.g.nGroups; gid++ {
		s.sumGroup(x, gid)
	}
	n := s.g.N()
	w := s.c.parentDim + s.c.nodeDim
	for r := 0; r < n; r++ {
		s.inputRow(xStar, x, r, s.in[r*w:(r+1)*w])
	}
	s.c.MLP.ForwardRow(s.in, n, s.sa, s.sb, s.h.Data)
	return s.h
}

// sumGroup re-accumulates group gid's sum from zero in member order — the
// order SegmentSum adds a group's rows in. An in-place "-= old += new"
// would change the fp accumulation order and break bit-identity.
func (s *GINIncremental) sumGroup(x *tensor.Tensor, gid int) {
	nodeDim := s.c.nodeDim
	dst := s.groupSum[gid*nodeDim : (gid+1)*nodeDim]
	clear(dst)
	for _, mem := range s.g.GroupMembers(gid) {
		src := x.Data[mem*nodeDim : (mem+1)*nodeDim]
		for i := range dst {
			dst[i] += src[i]
		}
	}
}

// inputRow writes row r's MLP input into dst: the parent's xStar row
// (zeros for roots — the sentinel row ParentFeatures gathers) next to the
// aggregation term with the tape path's expression shape,
// (x·(1+ε)) + (groupSum − x). The product is rounded on its own, as the
// tape's separate Mul rounds it: without the float64 conversion arm64
// fuses it and the sum into one FMA.
func (s *GINIncremental) inputRow(xStar, x *tensor.Tensor, r int, dst []float64) {
	parentDim, nodeDim := s.c.parentDim, s.c.nodeDim
	if p := s.g.Parent[r]; p >= 0 {
		copy(dst[:parentDim], xStar.Data[p*parentDim:(p+1)*parentDim])
	} else {
		clear(dst[:parentDim])
	}
	eps1 := s.c.Eps.Data[0] + 1
	gid := s.g.group[r]
	gsRow := s.groupSum[gid*nodeDim : (gid+1)*nodeDim]
	xRow := x.Data[r*nodeDim : (r+1)*nodeDim]
	for i := 0; i < nodeDim; i++ {
		dst[parentDim+i] = float64(xRow[i]*eps1) + (gsRow[i] - xRow[i])
	}
}

// Update recomputes the h rows affected by edits to the given x/xStar rows
// and returns the affected row indexes (ascending; the slice is reused
// across calls). The affected rows' inputs are gathered and run through
// the MLP in one ForwardRow call, then scattered into h. Prime must have
// run first against the pre-edit features' history — Update only needs
// the current tensors.
func (s *GINIncremental) Update(xStar, x *tensor.Tensor, changed []int) []int {
	s.affected = s.affected[:0]
	for _, j := range changed {
		gid := s.g.group[j]
		if !s.gmark[gid] {
			s.gmark[gid] = true
			for _, mem := range s.g.GroupMembers(gid) {
				if !s.mark[mem] {
					s.mark[mem] = true
					s.affected = append(s.affected, mem)
				}
			}
		}
		if cg := s.g.childGroup[j]; cg >= 0 {
			for _, kid := range s.g.GroupMembers(cg) {
				if !s.mark[kid] {
					s.mark[kid] = true
					s.affected = append(s.affected, kid)
				}
			}
		}
	}
	for _, j := range changed {
		if gid := s.g.group[j]; s.gmark[gid] {
			s.gmark[gid] = false
			s.sumGroup(x, gid)
		}
	}
	sort.Ints(s.affected)
	w := s.c.parentDim + s.c.nodeDim
	outDim := s.h.Cols()
	rows := len(s.affected)
	for a, r := range s.affected {
		s.mark[r] = false
		s.inputRow(xStar, x, r, s.in[a*w:(a+1)*w])
	}
	// One kernel call over the gathered rows; each row is computed on its
	// own, so batching them changes no bit.
	s.c.MLP.ForwardRow(s.in[:rows*w], rows, s.sa, s.sb, s.out[:rows*outDim])
	for a, r := range s.affected {
		copy(s.h.Data[r*outDim:(r+1)*outDim], s.out[a*outDim:(a+1)*outDim])
	}
	obs.C("gnn.incremental_rows").Add(int64(len(s.affected)))
	return s.affected
}
