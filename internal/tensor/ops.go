package tensor

import (
	"fmt"
	"math"
)

// broadcastable reports how b broadcasts against a: 0 = same shape,
// 1 = b is a single row [1, cols] repeated down a's rows,
// 2 = b is a scalar.
func broadcastable(a, b *Tensor) int {
	if SameShape(a, b) {
		return 0
	}
	if len(b.Data) == 1 {
		return 2
	}
	if b.Rows() == 1 && b.Cols() == a.Cols() {
		return 1
	}
	panic(fmt.Sprintf("tensor: cannot broadcast %v against %v", b.Shape, a.Shape))
}

// binaryOp applies ffn elementwise with row/scalar broadcasting of b; dfn
// returns (∂out/∂a, ∂out/∂b) at each element. Both functions must be
// static (non-capturing) so building the node allocates nothing beyond the
// result itself.
func binaryOp(a, b *Tensor, ffn func(x, y float64) float64, dfn func(x, y float64) (float64, float64)) *Tensor {
	mode := broadcastable(a, b)
	out := newOp2(opBinary, len(a.Data), a.Shape, a, b)
	cols := a.Cols()
	switch mode {
	case 0:
		for i, x := range a.Data {
			out.Data[i] = ffn(x, b.Data[i])
		}
	case 1:
		for i, x := range a.Data {
			out.Data[i] = ffn(x, b.Data[i%cols])
		}
	default:
		y := b.Data[0]
		for i, x := range a.Data {
			out.Data[i] = ffn(x, y)
		}
	}
	out.mode = int8(mode)
	out.bdfn = dfn
	return out
}

// backBinary pushes gradients through an elementwise binary op, undoing
// the broadcast by accumulating into the shared row/scalar cells of b.
func (t *Tensor) backBinary() {
	a, b := t.parents[0], t.parents[1]
	if a.requiresGrad {
		a.ensureGrad()
	}
	if b.requiresGrad {
		b.ensureGrad()
	}
	dfn := t.bdfn
	cols := a.Cols()
	switch t.mode {
	case 0:
		for i, x := range a.Data {
			da, db := dfn(x, b.Data[i])
			g := t.Grad[i]
			if a.requiresGrad {
				a.Grad[i] += g * da
			}
			if b.requiresGrad {
				b.Grad[i] += g * db
			}
		}
	case 1:
		for i, x := range a.Data {
			da, db := dfn(x, b.Data[i%cols])
			g := t.Grad[i]
			if a.requiresGrad {
				a.Grad[i] += g * da
			}
			if b.requiresGrad {
				b.Grad[i%cols] += g * db
			}
		}
	default:
		y := b.Data[0]
		for i, x := range a.Data {
			da, db := dfn(x, y)
			g := t.Grad[i]
			if a.requiresGrad {
				a.Grad[i] += g * da
			}
			if b.requiresGrad {
				b.Grad[0] += g * db
			}
		}
	}
}

func fAdd(x, y float64) float64               { return x + y }
func dAdd(x, y float64) (float64, float64)    { return 1, 1 }
func fSub(x, y float64) float64               { return x - y }
func dSub(x, y float64) (float64, float64)    { return 1, -1 }
func fMulBin(x, y float64) float64            { return x * y }
func dMulBin(x, y float64) (float64, float64) { return y, x }
func fDivBin(x, y float64) float64            { return x / y }
func dDivBin(x, y float64) (float64, float64) { return 1 / y, -x / (y * y) }

// Add returns a + b (b may be a row vector or scalar; broadcast).
func Add(a, b *Tensor) *Tensor { return binaryOp(a, b, fAdd, dAdd) }

// Sub returns a - b.
func Sub(a, b *Tensor) *Tensor { return binaryOp(a, b, fSub, dSub) }

// Mul returns the elementwise product a * b.
func Mul(a, b *Tensor) *Tensor { return binaryOp(a, b, fMulBin, dMulBin) }

// Div returns the elementwise quotient a / b.
func Div(a, b *Tensor) *Tensor { return binaryOp(a, b, fDivBin, dDivBin) }

// unaryOp applies ffn elementwise; dfn(x, y, c1, c2) is ∂out/∂x given
// input x and output y (letting activations reuse the forward value), with
// c1/c2 carrying the op's constants (scalar addends, slopes, bounds).
func unaryOp(a *Tensor, ffn func(x, c1, c2 float64) float64, dfn func(x, y, c1, c2 float64) float64, c1, c2 float64) *Tensor {
	return unaryOpIn(a.arena, a, ffn, dfn, c1, c2)
}

// unaryOpIn is unaryOp with the result placed in ar regardless of where the
// input lives. AddScalarIn uses it to keep per-step ops over heap
// parameters on the tape arena.
func unaryOpIn(ar *Arena, a *Tensor, ffn func(x, c1, c2 float64) float64, dfn func(x, y, c1, c2 float64) float64, c1, c2 float64) *Tensor {
	out := newOp1In(ar, opUnary, len(a.Data), a.Shape, a)
	for i, x := range a.Data {
		out.Data[i] = ffn(x, c1, c2)
	}
	out.udfn = dfn
	out.c1, out.c2 = c1, c2
	return out
}

func fNeg(x, _, _ float64) float64       { return -x }
func dNegOne(_, _, _, _ float64) float64 { return -1 }
func fAddS(x, c, _ float64) float64      { return x + c }
func dOne(_, _, _, _ float64) float64    { return 1 }
func fMulS(x, c, _ float64) float64      { return x * c }
func dC1(_, _, c, _ float64) float64     { return c }
func fReLU(x, _, _ float64) float64      { return math.Max(x, 0) }
func dReLU(x, _, _, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}
func fSigmoid(x, _, _ float64) float64    { return stableSigmoid(x) }
func dSigmoid(_, y, _, _ float64) float64 { return y * (1 - y) }
func fTanh(x, _, _ float64) float64       { return math.Tanh(x) }
func dTanh(_, y, _, _ float64) float64    { return 1 - y*y }
func fExp(x, _, _ float64) float64        { return math.Exp(x) }
func dExp(_, y, _, _ float64) float64     { return y }

const logEps = 1e-12

func fLog(x, _, _ float64) float64       { return math.Log(math.Max(x, logEps)) }
func dLog(x, _, _, _ float64) float64    { return 1 / math.Max(x, logEps) }
func fSquare(x, _, _ float64) float64    { return x * x }
func dSquare(x, _, _, _ float64) float64 { return 2 * x }
func fPow10(x, _, _ float64) float64     { return math.Pow(10, x) }
func dPow10(_, y, _, _ float64) float64  { return y * math.Ln10 }
func fLog10(x, _, _ float64) float64     { return math.Log10(math.Max(x, logEps)) }
func dLog10(x, _, _, _ float64) float64 {
	return 1 / (math.Max(x, logEps) * math.Ln10)
}
func fClamp(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }
func dClamp(x, _, lo, hi float64) float64 {
	if x >= lo && x <= hi {
		return 1
	}
	return 0
}
func fAbs(x, _, _ float64) float64 { return math.Abs(x) }
func dAbs(x, _, _, _ float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
func fSoftplus(x, _, _ float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}
func dSoftplus(x, _, _, _ float64) float64 { return stableSigmoid(x) }

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return unaryOp(a, fNeg, dNegOne, 0, 0) }

// AddScalar returns a + c.
func AddScalar(a *Tensor, c float64) *Tensor { return unaryOp(a, fAddS, dOne, c, 0) }

// AddScalarIn is AddScalar with the result (and its eventual gradient)
// drawn from ar — used when a is a heap parameter but the computation is
// part of an arena-backed tape, so the per-step intermediate recycles
// instead of becoming per-step garbage. A nil ar falls back to the heap.
func AddScalarIn(ar *Arena, a *Tensor, c float64) *Tensor {
	return unaryOpIn(ar, a, fAddS, dOne, c, 0)
}

// MulScalar returns a * c.
func MulScalar(a *Tensor, c float64) *Tensor { return unaryOp(a, fMulS, dC1, c, 0) }

// ReLU returns max(a, 0) elementwise.
func ReLU(a *Tensor) *Tensor { return unaryOp(a, fReLU, dReLU, 0, 0) }

// Sigmoid returns 1/(1+e^-x) elementwise (numerically stable form).
func Sigmoid(a *Tensor) *Tensor { return unaryOp(a, fSigmoid, dSigmoid, 0, 0) }

func stableSigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Tensor) *Tensor { return unaryOp(a, fTanh, dTanh, 0, 0) }

// Exp returns e^x elementwise.
func Exp(a *Tensor) *Tensor { return unaryOp(a, fExp, dExp, 0, 0) }

// Log returns the natural logarithm elementwise, with inputs clamped to a
// tiny positive floor for stability.
func Log(a *Tensor) *Tensor { return unaryOp(a, fLog, dLog, 0, 0) }

// Square returns x² elementwise.
func Square(a *Tensor) *Tensor { return unaryOp(a, fSquare, dSquare, 0, 0) }

// Pow10 returns 10^x elementwise. The Sleuth aggregation layer works on
// unscaled durations d' = 10^(σ·d + µ) (Eq. 2), so exponentiation by ten is
// a first-class op.
func Pow10(a *Tensor) *Tensor { return unaryOp(a, fPow10, dPow10, 0, 0) }

// Log10 returns log₁₀(x) elementwise with a positive floor.
func Log10(a *Tensor) *Tensor { return unaryOp(a, fLog10, dLog10, 0, 0) }

// Clamp limits values to [lo, hi]; gradient is 1 inside the window, 0 out.
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	return unaryOp(a, fClamp, dClamp, lo, hi)
}

// Abs returns |x| elementwise (subgradient 0 at x=0).
func Abs(a *Tensor) *Tensor { return unaryOp(a, fAbs, dAbs, 0, 0) }

// Softplus returns log(1+e^x), a smooth non-negativity transform used for
// the h' parameters of Eq. 2 (u and v must be non-negative).
func Softplus(a *Tensor) *Tensor { return unaryOp(a, fSoftplus, dSoftplus, 0, 0) }

// matmulAcc accumulates dst += a·b for row-major a [m,k], b [k,n],
// dst [m,n]: the AVX2 arm when the CPU has it, else the scalar arm. Both
// compute every cell with the same expression in the same order, so the
// arm never changes a result.
func matmulAcc(dst, a, b []float64, m, k, n int) {
	if !useAVX2 || k == 0 || n == 0 {
		matmulAccScalar(dst, a, b, m, k, n)
		return
	}
	b = b[:k*n]
	for i := 0; i < m; i++ {
		matmulRowAVX2(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b)
	}
}

// AddMin adds a < x[i] ? a : x[i] to dst[i] for every i < len(dst); x must
// be at least as long. The compare is the one the weighted Jaccard merge
// makes for its Σmin term (it picks x[i] on NaN and on two zeros), and each
// cell takes one addition, so the AVX2 arm (VMINPD with a as its first
// operand, then VADDPD) gives the scalar loop's bits.
func AddMin(dst, x []float64, a float64) {
	x = x[:len(dst)]
	if useAVX2 {
		addMinAVX2(dst, x, a)
		return
	}
	addMinScalar(dst, x, a)
}

// addMinScalar is AddMin's scalar arm; len(x) == len(dst).
func addMinScalar(dst, x []float64, a float64) {
	for i, v := range x {
		if a < v {
			dst[i] += a
		} else {
			dst[i] += v
		}
	}
}

// matmulAccScalar is the row-streaming saxpy behind matmulAcc. The
// k-dimension is unrolled four ways: each pass over an output row streams
// four b rows and adds (((a0·b0 + a1·b1) + a2·b2) + a3·b3) to each cell,
// skipping chunks whose four a values are all zero (sparse one-hot feature
// rows stay cheap); the k%4 tail adds one a·b term at a time with the same
// skip. The AVX2 arm vectorises this across output columns without
// reordering any cell's operations.
func matmulAccScalar(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		l := 0
		for ; l+4 <= k; l += 4 {
			a0, a1, a2, a3 := arow[l], arow[l+1], arow[l+2], arow[l+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[l*n : (l+1)*n]
			b1 := b[(l+1)*n : (l+2)*n]
			b2 := b[(l+2)*n : (l+3)*n]
			b3 := b[(l+3)*n : (l+4)*n]
			for j := range drow {
				drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			brow := b[l*n : (l+1)*n]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

// matmulNTAcc accumulates dst += g·bᵀ for g [m,n], b [k,n], dst [m,k] —
// the dA term of matmul backward. Each output cell is a dot product over
// n, computed with two running sums to expose instruction-level
// parallelism.
func matmulNTAcc(dst, g, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		grow := g[i*n : (i+1)*n]
		drow := dst[i*k : (i+1)*k]
		for l := 0; l < k; l++ {
			brow := b[l*n : (l+1)*n]
			s0, s1 := 0.0, 0.0
			j := 0
			for ; j+2 <= n; j += 2 {
				s0 += grow[j] * brow[j]
				s1 += grow[j+1] * brow[j+1]
			}
			if j < n {
				s0 += grow[j] * brow[j]
			}
			drow[l] += s0 + s1
		}
	}
}

// matmulTNAcc accumulates dst += aᵀ·g for a [m,k], g [m,n], dst [k,n] —
// the dB term of matmul backward. Runs as m rank-1 updates with the same
// zero-skip as the forward kernel (sparse input rows touch nothing); the
// AVX2 arm vectorises each update's single-term axpy across columns.
func matmulTNAcc(dst, a, g []float64, m, k, n int) {
	if !useAVX2 || k == 0 || n == 0 {
		matmulTNAccScalar(dst, a, g, m, k, n)
		return
	}
	dst = dst[:k*n]
	for i := 0; i < m; i++ {
		matmulTNRowAVX2(dst, a[i*k:(i+1)*k], g[i*n:(i+1)*n])
	}
}

func matmulTNAccScalar(dst, a, g []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		grow := g[i*n : (i+1)*n]
		for l := 0; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			drow := dst[l*n : (l+1)*n]
			for j := range drow {
				drow[j] += av * grow[j]
			}
		}
	}
}

// MatMul returns the matrix product a·b for a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := newOp2(opMatMul, m*n, []int{m, n}, a, b)
	matmulAcc(out.Data, a.Data, b.Data, m, k, n)
	out.i1 = k
	return out
}

func (t *Tensor) backMatMul() {
	a, b := t.parents[0], t.parents[1]
	m, n := t.Shape[0], t.Shape[1]
	k := t.i1
	if a.requiresGrad {
		a.ensureGrad()
		matmulNTAcc(a.Grad, t.Grad, b.Data, m, n, k)
	}
	if b.requiresGrad {
		b.ensureGrad()
		matmulTNAcc(b.Grad, a.Data, t.Grad, m, k, n)
	}
}

// AddMM returns x·w + bias as a single tape node — the fused Linear layer.
// x is [m,k], w is [k,n] and bias broadcasts as a row of n values. One node
// replaces the MatMul+Add pair, halving tape traffic on the densest op of
// the model, and the inner kernel is the unrolled matmulAcc.
func AddMM(x, w, bias *Tensor) *Tensor { return addmm(opAddMM, x, w, bias) }

// AddMMReLU returns relu(x·w + bias) as a single tape node — the fused
// hidden-layer step of the model's MLPs. The backward pass masks the
// incoming gradient by the activation sign once, then reuses the AddMM
// kernels.
func AddMMReLU(x, w, bias *Tensor) *Tensor { return addmm(opAddMMReLU, x, w, bias) }

// AddMMRowInto computes m rows of an AddMM (optionally fused-ReLU) into a
// caller-owned buffer without building a tape node: dst = x·w + bias for
// row-major x [m,k] and dst [m,n], clamped at zero when relu is set. It is
// the forward kernel addmm itself runs — bias copy per row, then the
// unrolled matmulAcc, then the ReLU clamp — and matmulAcc computes each row
// on its own, so any row of the result is bit-identical to that row of the
// full-matrix op whatever m is. This is the inference primitive behind the
// tape-free GNN forwards: a session's prime passes all n rows, an
// incremental update one row at a time.
func AddMMRowInto(dst, x []float64, m int, w, bias *Tensor, relu bool) {
	k, n := w.Rows(), w.Cols()
	if len(x) != m*k || len(dst) != m*n || bias.Numel() != n {
		panic("tensor: AddMMRowInto shape mismatch")
	}
	for i := 0; i < m; i++ {
		copy(dst[i*n:(i+1)*n], bias.Data)
	}
	matmulAcc(dst, x, w.Data, m, k, n)
	if relu {
		for i, v := range dst {
			if v < 0 {
				dst[i] = 0
			}
		}
	}
}

func addmm(kind opKind, x, w, bias *Tensor) *Tensor {
	m, k := x.Rows(), x.Cols()
	k2, n := w.Rows(), w.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: addmm shape mismatch %v x %v", x.Shape, w.Shape))
	}
	if bias.Numel() != n {
		panic(fmt.Sprintf("tensor: addmm bias length %d for %d columns", bias.Numel(), n))
	}
	out := newOp3(kind, m*n, []int{m, n}, x, w, bias)
	AddMMRowInto(out.Data, x.Data, m, w, bias, kind == opAddMMReLU)
	out.i1 = k
	return out
}

func (t *Tensor) backAddMM() {
	x, w, bias := t.parents[0], t.parents[1], t.parents[2]
	m, n := t.Shape[0], t.Shape[1]
	k := t.i1
	g := t.Grad
	if t.kind == opAddMMReLU {
		// Mask once: cells clipped by the ReLU pass no gradient. out > 0
		// exactly when the pre-activation was positive.
		var mg []float64
		if t.arena != nil {
			mg = t.arena.Floats(len(g))
		} else {
			mg = make([]float64, len(g))
		}
		for i, v := range t.Data {
			if v > 0 {
				mg[i] = g[i]
			}
		}
		g = mg
	}
	if x.requiresGrad {
		x.ensureGrad()
		matmulNTAcc(x.Grad, g, w.Data, m, n, k)
	}
	if w.requiresGrad {
		w.ensureGrad()
		matmulTNAcc(w.Grad, x.Data, g, m, k, n)
	}
	if bias.requiresGrad {
		bias.ensureGrad()
		bg := bias.Grad
		for i := 0; i < m; i++ {
			grow := g[i*n : (i+1)*n]
			for j, v := range grow {
				bg[j] += v
			}
		}
	}
}

// Sum returns the scalar sum of all elements.
func Sum(a *Tensor) *Tensor {
	out := newOp1(opSum, 1, []int{1}, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	return out
}

// Mean returns the scalar mean of all elements as a single tape node (the
// gradient scales by 1/n in place rather than chaining MulScalar∘Sum).
func Mean(a *Tensor) *Tensor {
	out := newOp1(opMean, 1, []int{1}, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	c := 1 / float64(len(a.Data))
	out.Data[0] = s * c
	out.c1 = c
	return out
}

// SumRows returns a [rows,1] column of per-row sums of a matrix.
func SumRows(a *Tensor) *Tensor {
	m, n := a.Rows(), a.Cols()
	out := newOp1(opSumRows, m, []int{m, 1}, a)
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.Data[i*n+j]
		}
		out.Data[i] = s
	}
	out.i1, out.i2 = m, n
	return out
}

// ConcatCols concatenates matrices with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols with no inputs")
	}
	m := ts[0].Rows()
	total := 0
	for _, t := range ts {
		if t.Rows() != m {
			panic("tensor: ConcatCols row mismatch")
		}
		total += t.Cols()
	}
	out := newOpN(opConcatCols, m*total, []int{m, total}, ts)
	off := 0
	for _, t := range ts {
		c := t.Cols()
		for i := 0; i < m; i++ {
			copy(out.Data[i*total+off:i*total+off+c], t.Data[i*c:(i+1)*c])
		}
		off += c
	}
	return out
}

// ConcatRows stacks matrices with equal column counts vertically, keeping
// gradients flowing to every input. It is the vstack primitive behind
// sentinel-row gathers (parent features, fallback rows) on the GNN forward
// hot path.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows with no inputs")
	}
	n := ts[0].Cols()
	total := 0
	for _, t := range ts {
		if t.Cols() != n {
			panic("tensor: ConcatRows column mismatch")
		}
		total += t.Rows()
	}
	out := newOpN(opConcatRows, total*n, []int{total, n}, ts)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	return out
}

// IndexRows gathers rows of a by idx: out[i] = a[idx[i]]. Gradients
// scatter-add back to the source rows. idx is captured by reference and
// must not be mutated afterwards.
func IndexRows(a *Tensor, idx []int) *Tensor {
	n := a.Cols()
	out := newOp1(opIndexRows, len(idx)*n, []int{len(idx), n}, a)
	for i, src := range idx {
		copy(out.Data[i*n:(i+1)*n], a.Data[src*n:(src+1)*n])
	}
	out.idx = idx
	return out
}

// SegmentSum sums the rows of a into nSeg output rows by segment ID:
// out[seg[i]] += a[i]. This is the scatter-add primitive of graph message
// passing — rows are messages, segments are destination nodes. Segment IDs
// must lie in [0, nSeg). seg is captured by reference and must not be
// mutated afterwards.
func SegmentSum(a *Tensor, seg []int, nSeg int) *Tensor {
	if len(seg) != a.Rows() {
		panic("tensor: SegmentSum segment length mismatch")
	}
	n := a.Cols()
	out := newOp1(opSegmentSum, nSeg*n, []int{nSeg, n}, a)
	for i, s := range seg {
		if s < 0 || s >= nSeg {
			panic(fmt.Sprintf("tensor: segment id %d out of range [0,%d)", s, nSeg))
		}
		dst := out.Data[s*n : (s+1)*n]
		src := a.Data[i*n : (i+1)*n]
		for j := range dst {
			dst[j] += src[j]
		}
	}
	out.idx = seg
	return out
}

// SegmentMax computes per-segment elementwise maxima: out[s][j] is the max
// of a[i][j] over rows i with seg[i] == s. Segments with no rows yield
// fallback. The gradient flows to each column's argmax row, matching the
// max-aggregation of Eq. 3 (error propagation).
func SegmentMax(a *Tensor, seg []int, nSeg int, fallback float64) *Tensor {
	if len(seg) != a.Rows() {
		panic("tensor: SegmentMax segment length mismatch")
	}
	n := a.Cols()
	out := newOp1(opSegmentMax, nSeg*n, []int{nSeg, n}, a)
	var argmax []int
	if out.arena != nil {
		argmax = out.arena.Ints(nSeg * n)
	} else {
		argmax = make([]int, nSeg*n)
	}
	data := out.Data
	for i := range data {
		data[i] = math.Inf(-1)
		argmax[i] = -1
	}
	for i, s := range seg {
		if s < 0 || s >= nSeg {
			panic(fmt.Sprintf("tensor: segment id %d out of range [0,%d)", s, nSeg))
		}
		for j := 0; j < n; j++ {
			if v := a.Data[i*n+j]; v > data[s*n+j] {
				data[s*n+j] = v
				argmax[s*n+j] = i
			}
		}
	}
	for i := range data {
		if argmax[i] < 0 {
			data[i] = fallback
		}
	}
	out.idx = argmax
	return out
}

// Max2 returns the elementwise maximum of two same-shaped tensors, with the
// gradient routed to the larger input (ties go to a).
func Max2(a, b *Tensor) *Tensor {
	if !SameShape(a, b) {
		panic("tensor: Max2 shape mismatch")
	}
	out := newOp2(opMax2, len(a.Data), a.Shape, a, b)
	for i := range out.Data {
		out.Data[i] = math.Max(a.Data[i], b.Data[i])
	}
	return out
}

// SliceCols returns columns [lo, hi) of a matrix as a new tensor with
// gradient routing back to the source columns.
func SliceCols(a *Tensor, lo, hi int) *Tensor {
	m, n := a.Rows(), a.Cols()
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols[%d:%d] of %d columns", lo, hi, n))
	}
	w := hi - lo
	out := newOp1(opSliceCols, m*w, []int{m, w}, a)
	for i := 0; i < m; i++ {
		copy(out.Data[i*w:(i+1)*w], a.Data[i*n+lo:i*n+hi])
	}
	out.i1, out.i2 = lo, hi
	return out
}
