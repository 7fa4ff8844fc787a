package tensor

import "math"

// MSE returns the scalar mean squared error between pred and target, which
// must share a shape. The target is treated as a constant.
func MSE(pred, target *Tensor) *Tensor {
	if !SameShape(pred, target) {
		panic("tensor: MSE shape mismatch")
	}
	diff := Sub(pred, target.Detach())
	return Mean(Square(diff))
}

// BCE returns the scalar mean binary cross entropy between probabilities
// pred in (0,1) and targets in {0,1} (soft targets allowed). Probabilities
// are clamped away from 0 and 1 for stability. This is the error term of
// the paper's loss (Eq. 5).
func BCE(pred, target *Tensor) *Tensor {
	if !SameShape(pred, target) {
		panic("tensor: BCE shape mismatch")
	}
	const eps = 1e-7
	p := Clamp(pred, eps, 1-eps)
	t := target.Detach()
	// -[t·log(p) + (1-t)·log(1-p)]
	term1 := Mul(t, Log(p))
	term2 := Mul(AddScalar(Neg(t), 1), Log(AddScalar(Neg(p), 1)))
	return Neg(Mean(Add(term1, term2)))
}

// BCEWithLogits returns the mean binary cross entropy computed directly
// from logits using the numerically stable formulation
// max(x,0) - x·t + log(1+e^{-|x|}).
func BCEWithLogits(logits, target *Tensor) *Tensor {
	if !SameShape(logits, target) {
		panic("tensor: BCEWithLogits shape mismatch")
	}
	out := newOp1(opClosure, len(logits.Data), logits.Shape, logits)
	for i, x := range logits.Data {
		t := target.Data[i]
		out.Data[i] = math.Max(x, 0) - x*t + math.Log1p(math.Exp(-math.Abs(x)))
	}
	if out.requiresGrad {
		out.backFn = func() {
			logits.ensureGrad()
			for i, x := range logits.Data {
				// d/dx = sigmoid(x) - t
				logits.Grad[i] += out.Grad[i] * (stableSigmoid(x) - target.Data[i])
			}
		}
	}
	return Mean(out)
}

// KLStandardNormal returns the KL divergence between N(mu, exp(logvar)) and
// the standard normal, summed over dimensions and averaged over rows:
// ½·Σ(µ² + σ² - logσ² - 1). Used by the VAE baselines (TraceAnomaly, Sage).
func KLStandardNormal(mu, logvar *Tensor) *Tensor {
	if !SameShape(mu, logvar) {
		panic("tensor: KL shape mismatch")
	}
	// ½ mean_rows Σ_cols (µ² + e^lv - lv - 1)
	inner := Sub(Sub(Add(Square(mu), Exp(logvar)), logvar), Full(1, logvar.Shape...))
	perRow := SumRows(inner)
	return MulScalar(Mean(perRow), 0.5)
}
