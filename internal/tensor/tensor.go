// Package tensor implements dense float64 tensors with reverse-mode
// automatic differentiation.
//
// It is the substrate standing in for PyTorch Geometric in this
// reproduction: the Sleuth GNN (internal/gnn, internal/core), the Sage and
// TraceAnomaly variational autoencoders and the DeepTraLog gated GNN are
// all expressed as tensor graphs and trained through this package.
//
// The design is a classic define-by-run tape: every operation produces a
// result tensor carrying enough state to propagate gradients to its
// parents. Calling Backward on a scalar result runs the tape in reverse
// topological order. Only the shapes the models need are supported —
// scalars, vectors and matrices (row-major) — plus the two indexing
// primitives that make graph message passing expressible: IndexRows
// (gather) and SegmentSum (scatter-add by segment).
//
// Two properties keep the training hot path off the allocator (see
// DESIGN.md §8): op results embed their backward payload inline in the
// Tensor (an opKind tag plus constants, index slices and static derivative
// functions) instead of heap-allocated closures, and every allocation an
// op makes — result buffer, Tensor header, shape, parent list, gradient —
// is drawn from the Arena governing its inputs when one is installed.
package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// opKind tags how a tape node propagates gradients. opNone marks leaves;
// opClosure is the escape hatch for rare ops that still carry a closure.
type opKind uint8

const (
	opNone opKind = iota
	opBinary
	opUnary
	opMatMul
	opAddMM
	opAddMMReLU
	opSum
	opMean
	opSumRows
	opConcatCols
	opConcatRows
	opIndexRows
	opSegmentSum
	opSegmentMax
	opMax2
	opSliceCols
	opClosure
)

// Tensor is a dense row-major tensor with an optional gradient tape entry.
//
// The op payload fields (kind through backFn) describe how to push the
// result's gradient to its parents without a per-op closure: udfn/bdfn are
// static (non-capturing) derivative functions, c1/c2 carry op constants
// (scalar addends, slopes, clamp bounds, 1/n), i1..i3 carry op dimensions
// and idx carries gather/segment/argmax indices. backstep dispatches on
// kind. Only closure ops (opClosure) pay for a heap-allocated backFn.
type Tensor struct {
	Data  []float64
	Shape []int // length 1 (vector) or 2 (matrix); scalars are [1]

	// Grad accumulates ∂loss/∂this after Backward. Nil until needed.
	Grad []float64

	requiresGrad bool
	kind         opKind
	mode         int8 // broadcast mode for opBinary (see broadcastable)

	// visit is the generation stamp of the last topoSort that reached this
	// tensor. Stamps come from a global atomic counter, so concurrent
	// Backward calls over disjoint graphs (the documented contract) never
	// observe each other's marks and no per-call visited map is needed.
	visit uint64

	parents []*Tensor
	c1, c2  float64
	i1, i2  int
	idx     []int
	udfn    func(x, y, c1, c2 float64) float64
	bdfn    func(x, y float64) (float64, float64)
	backFn  func()

	// arena is the recycling allocator this tensor was drawn from (nil for
	// heap tensors). Results inherit the first non-nil arena among their
	// parents, so installing an Arena.View at the inputs routes the whole
	// downstream tape into the arena.
	arena *Arena
}

// backGen hands out unique topoSort generation stamps process-wide.
var backGen atomic.Uint64

// New creates a tensor of the given shape backed by data. The data slice is
// retained, not copied. It panics if the element count does not match.
func New(data []float64, shape ...int) *Tensor {
	n := numel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Zeros creates a zero-filled tensor of the given shape.
func Zeros(shape ...int) *Tensor {
	return New(make([]float64, numel(shape)), shape...)
}

// Full creates a tensor of the given shape filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Scalar creates a 1-element tensor holding v.
func Scalar(v float64) *Tensor { return New([]float64{v}, 1) }

// FromRows creates a [len(rows), len(rows[0])] matrix copying the data.
// It panics on ragged input.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		panic("tensor: FromRows with no rows")
	}
	c := len(rows[0])
	data := make([]float64, 0, len(rows)*c)
	for _, r := range rows {
		if len(r) != c {
			panic("tensor: ragged rows")
		}
		data = append(data, r...)
	}
	return New(data, len(rows), c)
}

func numel(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// The dimension alone keeps this diagnostic from leaking the
			// shape slice to the heap at every caller (escape analysis).
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape", d))
		}
		n *= d
	}
	return n
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Rows returns the first dimension (1 for vectors and scalars).
func (t *Tensor) Rows() int {
	if len(t.Shape) < 2 {
		return 1
	}
	return t.Shape[0]
}

// Cols returns the trailing dimension.
func (t *Tensor) Cols() int { return t.Shape[len(t.Shape)-1] }

// At returns element (r, c) of a matrix (or (0, c) of a vector).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols()+c] }

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols()+c] = v }

// Item returns the value of a 1-element tensor and panics otherwise.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.Data)))
	}
	return t.Data[0]
}

// RequireGrad marks t as a differentiable leaf and returns t.
func (t *Tensor) RequireGrad() *Tensor {
	t.requiresGrad = true
	return t
}

// RequiresGrad reports whether t participates in gradient computation.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// ensureGrad allocates the gradient buffer on demand — from the tensor's
// arena when it has one, so non-leaf gradients recycle with the tape.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = floatsIn(t.arena, len(t.Data))
	}
}

// EnsureGrad allocates the gradient buffer if absent. Optimizer-side helpers
// (gradient reduction) use it to materialise leaf gradients before
// accumulating into them.
func (t *Tensor) EnsureGrad() { t.ensureGrad() }

// ZeroGrad clears the accumulated gradient.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Detach returns a view of the same data with no tape history. The view is
// drawn from t's arena when it has one, keeping detaches on the training
// hot path (loss targets) off the heap.
func (t *Tensor) Detach() *Tensor {
	if t.arena != nil {
		return t.arena.View(t)
	}
	return &Tensor{Data: t.Data, Shape: append([]int(nil), t.Shape...)}
}

// Clone returns a deep copy with no tape history.
func (t *Tensor) Clone() *Tensor {
	d := append([]float64(nil), t.Data...)
	return New(d, t.Shape...)
}

// floatsIn returns n zeroed floats from ar, or from the heap when ar is nil.
func floatsIn(ar *Arena, n int) []float64 {
	if ar == nil {
		return make([]float64, n)
	}
	return ar.Floats(n)
}

// resultIn allocates a result tensor with a zeroed data buffer of n
// elements, from the arena when ar is non-nil.
func resultIn(ar *Arena, n int, shape []int) *Tensor {
	if ar == nil {
		return &Tensor{Data: make([]float64, n), Shape: append([]int(nil), shape...)}
	}
	t := ar.tensor()
	t.Data = ar.Floats(n)
	t.Shape = ar.shape(shape)
	return t
}

// newOp1 builds a one-parent op result. Fixed-arity constructors (rather
// than a variadic one) keep parent lists out of escape analysis's way and
// let the arena supply them.
func newOp1(kind opKind, n int, shape []int, a *Tensor) *Tensor {
	return newOp1In(a.arena, kind, n, shape, a)
}

// newOp1In is newOp1 with the result arena chosen by the caller rather than
// inherited — for ops whose only parent is a heap parameter but whose result
// belongs on the tape arena (e.g. the GIN (1+ε) term).
func newOp1In(ar *Arena, kind opKind, n int, shape []int, a *Tensor) *Tensor {
	out := resultIn(ar, n, shape)
	out.kind = kind
	if a.requiresGrad {
		out.requiresGrad = true
		var ps []*Tensor
		if out.arena != nil {
			ps = out.arena.ptrSlice(1)
		} else {
			ps = make([]*Tensor, 1)
		}
		ps[0] = a
		out.parents = ps
	}
	return out
}

// newOp2 builds a two-parent op result, inheriting the first non-nil arena.
func newOp2(kind opKind, n int, shape []int, a, b *Tensor) *Tensor {
	ar := a.arena
	if ar == nil {
		ar = b.arena
	}
	out := resultIn(ar, n, shape)
	out.kind = kind
	if a.requiresGrad || b.requiresGrad {
		out.requiresGrad = true
		var ps []*Tensor
		if ar != nil {
			ps = ar.ptrSlice(2)
		} else {
			ps = make([]*Tensor, 2)
		}
		ps[0], ps[1] = a, b
		out.parents = ps
	}
	return out
}

// newOp3 builds a three-parent op result (AddMM: input, weight, bias).
func newOp3(kind opKind, n int, shape []int, a, b, c *Tensor) *Tensor {
	ar := a.arena
	if ar == nil {
		ar = b.arena
	}
	if ar == nil {
		ar = c.arena
	}
	out := resultIn(ar, n, shape)
	out.kind = kind
	if a.requiresGrad || b.requiresGrad || c.requiresGrad {
		out.requiresGrad = true
		var ps []*Tensor
		if ar != nil {
			ps = ar.ptrSlice(3)
		} else {
			ps = make([]*Tensor, 3)
		}
		ps[0], ps[1], ps[2] = a, b, c
		out.parents = ps
	}
	return out
}

// newOpN builds an op result over a caller-owned parent list (concats).
// The list is copied so callers may reuse their argument slices.
func newOpN(kind opKind, n int, shape []int, ts []*Tensor) *Tensor {
	var ar *Arena
	grad := false
	for _, t := range ts {
		if ar == nil {
			ar = t.arena
		}
		grad = grad || t.requiresGrad
	}
	out := resultIn(ar, n, shape)
	out.kind = kind
	if grad {
		out.requiresGrad = true
		var ps []*Tensor
		if ar != nil {
			ps = ar.ptrSlice(len(ts))
		} else {
			ps = make([]*Tensor, len(ts))
		}
		copy(ps, ts)
		out.parents = ps
	}
	return out
}

// Backward runs reverse-mode differentiation from t, which must be a
// scalar (1-element) tensor, accumulating gradients into every reachable
// tensor that requires them. Gradients accumulate across calls; use
// ZeroGrad (or an optimizer step) between backward passes.
//
// Concurrency: forward ops only read their inputs, so goroutines may build
// independent graphs over shared leaves concurrently. Backward, however,
// writes into the Grad buffers of every reachable leaf without locking —
// concurrent Backward calls are only safe when the graphs share no
// differentiable leaf. Data-parallel training gets per-goroutine leaves by
// aliasing parameter data across module replicas (nn.AliasParams). The
// same contract covers the visit stamps topoSort writes: they only land on
// tensors that require gradients, which concurrent graphs must not share.
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic("tensor: Backward on non-scalar tensor")
	}
	if !t.requiresGrad {
		return
	}
	order := topoSort(t, t.arena)
	t.ensureGrad()
	t.Grad[0] += 1
	for i := len(order) - 1; i >= 0; i-- {
		order[i].backstep()
	}
}

type topoFrame struct {
	t    *Tensor
	next int
}

// topoSort returns the tape in topological order (leaves first) using an
// iterative DFS — model graphs over large traces can exceed Go's default
// recursion comfort zone. Visited bookkeeping uses per-tensor generation
// stamps from a global counter instead of a per-call map, and the order
// and stack slices are recycled through the arena when one is installed.
func topoSort(root *Tensor, a *Arena) []*Tensor {
	gen := backGen.Add(1)
	var order []*Tensor
	var stack []topoFrame
	if a != nil {
		order = a.order[:0]
		stack = a.stack[:0]
	}
	stack = append(stack, topoFrame{t: root})
	root.visit = gen
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.parents) {
			p := f.t.parents[f.next]
			f.next++
			if p.requiresGrad && p.visit != gen {
				p.visit = gen
				stack = append(stack, topoFrame{t: p})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	if a != nil {
		a.order = order
		a.stack = stack[:0]
	}
	return order
}

// backstep pushes t's gradient to its parents, dispatching on the op kind.
func (t *Tensor) backstep() {
	switch t.kind {
	case opNone:
		// Leaf: nothing to propagate.
	case opUnary:
		a := t.parents[0]
		a.ensureGrad()
		dfn, c1, c2 := t.udfn, t.c1, t.c2
		for i, x := range a.Data {
			a.Grad[i] += t.Grad[i] * dfn(x, t.Data[i], c1, c2)
		}
	case opBinary:
		t.backBinary()
	case opMatMul:
		t.backMatMul()
	case opAddMM, opAddMMReLU:
		t.backAddMM()
	case opSum:
		a := t.parents[0]
		a.ensureGrad()
		g := t.Grad[0]
		for i := range a.Grad {
			a.Grad[i] += g
		}
	case opMean:
		a := t.parents[0]
		a.ensureGrad()
		g := t.Grad[0] * t.c1
		for i := range a.Grad {
			a.Grad[i] += g
		}
	case opSumRows:
		a := t.parents[0]
		a.ensureGrad()
		m, n := t.i1, t.i2
		for i := 0; i < m; i++ {
			g := t.Grad[i]
			row := a.Grad[i*n : (i+1)*n]
			for j := range row {
				row[j] += g
			}
		}
	case opConcatCols:
		m, total := t.Shape[0], t.Shape[1]
		off := 0
		for _, p := range t.parents {
			c := p.Cols()
			if p.requiresGrad {
				p.ensureGrad()
				for i := 0; i < m; i++ {
					src := t.Grad[i*total+off : i*total+off+c]
					dst := p.Grad[i*c : (i+1)*c]
					for j := range dst {
						dst[j] += src[j]
					}
				}
			}
			off += c
		}
	case opConcatRows:
		n := t.Shape[1]
		off := 0
		for _, p := range t.parents {
			size := p.Rows() * n
			if p.requiresGrad {
				p.ensureGrad()
				src := t.Grad[off : off+size]
				for i, g := range src {
					p.Grad[i] += g
				}
			}
			off += size
		}
	case opIndexRows:
		a := t.parents[0]
		a.ensureGrad()
		n := t.Shape[1]
		for i, src := range t.idx {
			dst := a.Grad[src*n : (src+1)*n]
			g := t.Grad[i*n : (i+1)*n]
			for j := range dst {
				dst[j] += g[j]
			}
		}
	case opSegmentSum:
		a := t.parents[0]
		a.ensureGrad()
		n := t.Shape[1]
		for i, s := range t.idx {
			dst := a.Grad[i*n : (i+1)*n]
			g := t.Grad[s*n : (s+1)*n]
			for j := range dst {
				dst[j] += g[j]
			}
		}
	case opSegmentMax:
		a := t.parents[0]
		a.ensureGrad()
		nSeg, n := t.Shape[0], t.Shape[1]
		// idx holds the per-output-cell argmax row (or -1 for empty
		// segments filled with the fallback value).
		for s := 0; s < nSeg; s++ {
			for j := 0; j < n; j++ {
				if src := t.idx[s*n+j]; src >= 0 {
					a.Grad[src*n+j] += t.Grad[s*n+j]
				}
			}
		}
	case opMax2:
		a, b := t.parents[0], t.parents[1]
		if a.requiresGrad {
			a.ensureGrad()
		}
		if b.requiresGrad {
			b.ensureGrad()
		}
		for i := range t.Data {
			if a.Data[i] >= b.Data[i] {
				if a.requiresGrad {
					a.Grad[i] += t.Grad[i]
				}
			} else if b.requiresGrad {
				b.Grad[i] += t.Grad[i]
			}
		}
	case opSliceCols:
		a := t.parents[0]
		a.ensureGrad()
		lo := t.i1
		m, w := t.Shape[0], t.Shape[1]
		n := a.Cols()
		for i := 0; i < m; i++ {
			dst := a.Grad[i*n+lo : i*n+lo+w]
			g := t.Grad[i*w : (i+1)*w]
			for j := range dst {
				dst[j] += g[j]
			}
		}
	case opClosure:
		t.backFn()
	default:
		panic(fmt.Sprintf("tensor: unknown op kind %d in backward", t.kind))
	}
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.Shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.Data[0], t.Data[1], t.Data[len(t.Data)-1])
	}
	return b.String()
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// CheckFinite returns an error if any element of t is NaN or infinite.
func (t *Tensor) CheckFinite() error {
	for i, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tensor: non-finite value %v at index %d", v, i)
		}
	}
	return nil
}
