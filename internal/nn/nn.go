// Package nn builds neural-network layers, optimizers and model
// serialization on top of the tensor autodiff engine. Together with
// internal/tensor and internal/gnn it forms the ML-framework substrate the
// paper obtained from PyTorch Geometric.
package nn

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// Param is a named trainable tensor.
type Param struct {
	Name string
	T    *tensor.Tensor
}

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []Param
}

// Activation is an elementwise non-linearity usable between layers.
type Activation func(*tensor.Tensor) *tensor.Tensor

// Common activations.
var (
	ReLU     Activation = tensor.ReLU
	Tanh     Activation = tensor.Tanh
	Sigmoid  Activation = tensor.Sigmoid
	Identity Activation = func(t *tensor.Tensor) *tensor.Tensor { return t }
)

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *tensor.Tensor // [in, out]
	B *tensor.Tensor // [1, out]

	name string
}

// NewLinear creates a Linear layer with Xavier-uniform weights and zero
// bias, drawing from rng for reproducibility.
func NewLinear(name string, in, out int, rng *xrand.Rand) *Linear {
	w := tensor.Zeros(in, out)
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range w.Data {
		w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return &Linear{
		W:    w.RequireGrad(),
		B:    tensor.Zeros(1, out).RequireGrad(),
		name: name,
	}
}

// Forward applies the layer to x of shape [m, in] as a single fused
// AddMM tape node (matmul + bias broadcast).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AddMM(x, l.W, l.B)
}

// ForwardReLU applies the layer and a ReLU in one fused tape node.
func (l *Linear) ForwardReLU(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AddMMReLU(x, l.W, l.B)
}

// Params implements Module.
func (l *Linear) Params() []Param {
	return []Param{{l.name + ".W", l.W}, {l.name + ".B", l.B}}
}

// In returns the input width of the layer.
func (l *Linear) In() int { return l.W.Shape[0] }

// Out returns the output width of the layer.
func (l *Linear) Out() int { return l.W.Shape[1] }

// MLP is a stack of Linear layers with a shared hidden activation. The
// output layer is linear (no activation) unless OutAct is set.
type MLP struct {
	Layers []*Linear
	Act    Activation
	OutAct Activation

	// fuseReLU marks that Act is the stock ReLU, letting Forward emit
	// fused AddMMReLU nodes for hidden layers instead of a Linear + ReLU
	// pair. Set by NewMLP; manually assembled MLPs take the unfused path.
	fuseReLU bool
}

// NewMLP creates an MLP with the given layer widths, e.g. dims = [in,
// hidden, out]. At least two dims are required.
func NewMLP(name string, dims []int, act Activation, rng *xrand.Rand) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{Act: act, OutAct: Identity, fuseReLU: isReLU(act)}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), dims[i], dims[i+1], rng))
	}
	return m
}

// isReLU reports whether act is the package's stock ReLU activation (func
// values only compare via their code pointers).
func isReLU(act Activation) bool {
	return act != nil && reflect.ValueOf(act).Pointer() == reflect.ValueOf(ReLU).Pointer()
}

// Forward applies the MLP to x.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := x
	for i, l := range m.Layers {
		if i+1 < len(m.Layers) {
			if m.fuseReLU {
				h = l.ForwardReLU(h)
			} else {
				h = m.Act(l.Forward(h))
			}
		} else {
			h = m.OutAct(l.Forward(h))
		}
	}
	return h
}

// Params implements Module.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// RowCompatible reports whether ForwardRow can reproduce Forward for this
// MLP: stock-ReLU hidden layers (the fused path) and a linear output. MLPs
// assembled by NewMLP with nn.ReLU qualify.
func (m *MLP) RowCompatible() bool {
	return m.fuseReLU && isIdentity(m.OutAct)
}

// isIdentity reports whether act is the package's stock Identity.
func isIdentity(act Activation) bool {
	return act != nil && reflect.ValueOf(act).Pointer() == reflect.ValueOf(Identity).Pointer()
}

// MaxWidth returns the widest layer output — ForwardRow needs m times this
// much scratch.
func (m *MLP) MaxWidth() int {
	w := 0
	for _, l := range m.Layers {
		if l.Out() > w {
			w = l.Out()
		}
	}
	return w
}

// ForwardRow applies the MLP to rows input rows (row-major in) without
// building tape nodes, writing the result into out (rows × the final
// layer's width). scratchA and scratchB are caller-owned ping-pong buffers
// of at least rows·MaxWidth() elements. Each layer runs the same fused
// kernel the full-matrix Forward runs, so every output row is
// bit-identical to the corresponding row of Forward — the contract the
// tape-free GNN forwards rely on. Callers must check RowCompatible first;
// other activation configurations panic.
func (m *MLP) ForwardRow(in []float64, rows int, scratchA, scratchB, out []float64) {
	if !m.RowCompatible() {
		panic("nn: ForwardRow on a non-row-compatible MLP")
	}
	cur := in
	bufs := [2][]float64{scratchA, scratchB}
	for i, l := range m.Layers {
		last := i+1 == len(m.Layers)
		dst := bufs[i%2][:rows*l.Out()]
		if last {
			dst = out
		}
		tensor.AddMMRowInto(dst, cur, rows, l.W, l.B, !last)
		cur = dst
	}
}

// LayerNorm normalises each row to zero mean and unit variance and applies
// a learned affine transform.
type LayerNorm struct {
	Gamma *tensor.Tensor // [1, dim]
	Beta  *tensor.Tensor // [1, dim]
	name  string
}

// NewLayerNorm creates a LayerNorm over the trailing dimension.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Gamma: tensor.Full(1, 1, dim).RequireGrad(),
		Beta:  tensor.Zeros(1, dim).RequireGrad(),
		name:  name,
	}
}

// Forward normalises x row-wise. Implemented with tape ops so gradients
// flow through the statistics.
func (ln *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := float64(x.Cols())
	mean := tensor.MulScalar(tensor.SumRows(x), 1/n)        // [m,1]
	centered := tensor.Sub(x, broadcastCol(mean, x.Cols())) // [m,d]
	varr := tensor.MulScalar(tensor.SumRows(tensor.Square(centered)), 1/n)
	inv := invSqrt(varr) // [m,1]
	norm := tensor.Mul(centered, broadcastCol(inv, x.Cols()))
	return tensor.Add(tensor.Mul(norm, ln.Gamma), ln.Beta)
}

// Params implements Module.
func (ln *LayerNorm) Params() []Param {
	return []Param{{ln.name + ".gamma", ln.Gamma}, {ln.name + ".beta", ln.Beta}}
}

// broadcastCol repeats a [m,1] column across cols columns by gathering the
// same row index; gradient flows back through IndexRows.
func broadcastCol(col *tensor.Tensor, cols int) *tensor.Tensor {
	// Build [m,cols] by matmul with a ones row.
	ones := tensor.Full(1, 1, cols)
	return tensor.MatMul(col, ones)
}

// invSqrt computes 1/sqrt(x + eps) elementwise via tape ops.
func invSqrt(x *tensor.Tensor) *tensor.Tensor {
	const eps = 1e-6
	// (x+eps)^(-1/2) = exp(-0.5 * ln(x+eps))
	return tensor.Exp(tensor.MulScalar(tensor.Log(tensor.AddScalar(x, eps)), -0.5))
}

// Sequential composes modules that each map a tensor to a tensor.
type Sequential struct {
	mods []interface {
		Forward(*tensor.Tensor) *tensor.Tensor
		Params() []Param
	}
}

// NewSequential builds a Sequential from the given forward modules.
func NewSequential(mods ...interface {
	Forward(*tensor.Tensor) *tensor.Tensor
	Params() []Param
}) *Sequential {
	return &Sequential{mods: mods}
}

// Forward applies every module in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, m := range s.mods {
		x = m.Forward(x)
	}
	return x
}

// Params implements Module.
func (s *Sequential) Params() []Param {
	var ps []Param
	for _, m := range s.mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// StateDict extracts a name → values snapshot of a module's parameters.
func StateDict(m Module) map[string][]float64 {
	out := make(map[string][]float64)
	for _, p := range m.Params() {
		out[p.Name] = append([]float64(nil), p.T.Data...)
	}
	return out
}

// LoadStateDict copies values into the module's parameters by name.
// Unknown names in the dict are ignored; missing names or size mismatches
// return an error, so transfer between architecturally identical models is
// exact while partial fine-tuning setups fail loudly.
func LoadStateDict(m Module, dict map[string][]float64) error {
	for _, p := range m.Params() {
		vals, ok := dict[p.Name]
		if !ok {
			return fmt.Errorf("nn: state dict missing %q", p.Name)
		}
		if len(vals) != len(p.T.Data) {
			return fmt.Errorf("nn: state dict size mismatch for %q: %d vs %d", p.Name, len(vals), len(p.T.Data))
		}
		copy(p.T.Data, vals)
	}
	return nil
}

// NumParams returns the total number of scalar parameters in a module —
// the paper compares model sizes (Sleuth fixed vs Sage growing, §6.3).
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.T.Numel()
	}
	return n
}

// ParamNames returns the sorted parameter names of a module.
func ParamNames(m Module) []string {
	var names []string
	for _, p := range m.Params() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}
