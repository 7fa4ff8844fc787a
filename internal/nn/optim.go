package nn

import "math"

// Adam implements the Adam optimizer with optional decoupled weight decay
// (AdamW when decay > 0).
type Adam struct {
	params []Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	decay  float64

	m, v [][]float64
	t    int
}

// NewAdam creates an Adam optimizer with the conventional defaults
// beta1=0.9, beta2=0.999, eps=1e-8 and no weight decay.
func NewAdam(mod Module, lr float64) *Adam {
	return NewAdamW(mod, lr, 0)
}

// NewAdamW creates Adam with decoupled weight decay.
func NewAdamW(mod Module, lr, decay float64) *Adam {
	ps := mod.Params()
	m := make([][]float64, len(ps))
	v := make([][]float64, len(ps))
	for i, p := range ps {
		m[i] = make([]float64, p.T.Numel())
		v[i] = make([]float64, p.T.Numel())
	}
	return &Adam{params: ps, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, decay: decay, m: m, v: v}
}

// Step applies one update and leaves gradients untouched.
func (o *Adam) Step() {
	o.t++
	bc1 := 1 - math.Pow(o.beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.beta2, float64(o.t))
	for i, p := range o.params {
		if p.T.Grad == nil {
			continue
		}
		m, v := o.m[i], o.v[i]
		for j := range p.T.Data {
			g := p.T.Grad[j]
			m[j] = o.beta1*m[j] + (1-o.beta1)*g
			v[j] = o.beta2*v[j] + (1-o.beta2)*g*g
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			upd := o.lr * mhat / (math.Sqrt(vhat) + o.eps)
			if o.decay > 0 {
				upd += o.lr * o.decay * p.T.Data[j]
			}
			p.T.Data[j] -= upd
		}
	}
}

// ZeroGrad clears every parameter gradient.
func (o *Adam) ZeroGrad() { zeroGrads(o.params) }

func zeroGrads(ps []Param) {
	for _, p := range ps {
		p.T.ZeroGrad()
	}
}

// ClipGradNorm scales all gradients so their global L2 norm does not exceed
// maxNorm, returning the pre-clip norm. Stabilises GNN training on traces
// with extreme-tail durations. maxNorm must be positive.
func ClipGradNorm(m Module, maxNorm float64) float64 {
	total := 0.0
	for _, p := range m.Params() {
		for _, g := range p.T.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range m.Params() {
			for i := range p.T.Grad {
				p.T.Grad[i] *= scale
			}
		}
	}
	return norm
}
