package nn

import (
	"bytes"
	"math"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/tensor"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func TestLinearForwardShape(t *testing.T) {
	r := xrand.New(1)
	l := NewLinear("l", 4, 3, r)
	x := tensor.Zeros(5, 4)
	out := l.Forward(x)
	if out.Rows() != 5 || out.Cols() != 3 {
		t.Fatalf("output shape = %v", out.Shape)
	}
	if l.In() != 4 || l.Out() != 3 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
	// Zero input → bias only (zero-initialized).
	for _, v := range out.Data {
		if v != 0 {
			t.Fatalf("zero input produced %v", v)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	r := xrand.New(2)
	l := NewLinear("l", 3, 2, r)
	x := tensor.Zeros(4, 3)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	target := tensor.Zeros(4, 2)
	leaves := []*tensor.Tensor{l.W, l.B}
	err := tensor.GradCheck(func() *tensor.Tensor {
		return tensor.MSE(l.Forward(x), target)
	}, leaves, 1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	r := xrand.New(3)
	m := NewMLP("xor", []int{2, 8, 1}, Tanh, r)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := tensor.FromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := NewAdam(m, 0.05)
	var last float64
	for epoch := 0; epoch < 500; epoch++ {
		loss := tensor.BCEWithLogits(m.Forward(x), y)
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
		last = loss.Item()
	}
	if last > 0.05 {
		t.Fatalf("XOR did not converge: loss = %v", last)
	}
	// Verify decisions.
	out := tensor.Sigmoid(m.Forward(x))
	want := []float64{0, 1, 1, 0}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 0.2 {
			t.Fatalf("XOR output[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestMLPRegression(t *testing.T) {
	r := xrand.New(4)
	m := NewMLP("reg", []int{1, 16, 1}, ReLU, r)
	// Fit y = 2x + 1 on [0,1].
	n := 64
	xr := make([][]float64, n)
	yr := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n-1)
		xr[i] = []float64{v}
		yr[i] = []float64{2*v + 1}
	}
	x, y := tensor.FromRows(xr), tensor.FromRows(yr)
	opt := NewAdam(m, 0.01)
	var last float64
	for epoch := 0; epoch < 400; epoch++ {
		loss := tensor.MSE(m.Forward(x), y)
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
		last = loss.Item()
	}
	if last > 1e-3 {
		t.Fatalf("linear fit loss = %v", last)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := tensor.New([]float64{5, -3}, 1, 2).RequireGrad()
	holder := paramHolder{{Name: "w", T: w}}
	opt := NewAdam(holder, 0.1)
	for i := 0; i < 300; i++ {
		loss := tensor.Sum(tensor.Square(w))
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
	}
	for _, v := range w.Data {
		if math.Abs(v) > 1e-2 {
			t.Fatalf("Adam did not reach the minimum: %v", w.Data)
		}
	}
}

type paramHolder []Param

func (p paramHolder) Params() []Param { return p }

func TestAdamWDecaysWeights(t *testing.T) {
	w := tensor.New([]float64{10}, 1, 1).RequireGrad()
	opt := NewAdamW(paramHolder{{Name: "w", T: w}}, 0.01, 0.5)
	// Loss gradient is zero; only decay acts.
	w.Grad = make([]float64, 1)
	before := w.Data[0]
	opt.Step()
	if w.Data[0] >= before {
		t.Fatalf("AdamW did not decay weight: %v -> %v", before, w.Data[0])
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	r := xrand.New(7)
	a := NewMLP("m", []int{2, 4, 1}, ReLU, r)
	b := NewMLP("m", []int{2, 4, 1}, ReLU, r.Split("other"))
	dict := StateDict(a)
	if err := LoadStateDict(b, dict); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromRows([][]float64{{0.3, -0.7}})
	if a.Forward(x).Item() != b.Forward(x).Item() {
		t.Fatal("models differ after state dict transfer")
	}
}

func TestLoadStateDictErrors(t *testing.T) {
	r := xrand.New(8)
	m := NewMLP("m", []int{2, 2}, ReLU, r)
	if err := LoadStateDict(m, map[string][]float64{}); err == nil {
		t.Fatal("missing key accepted")
	}
	bad := StateDict(m)
	bad["m.l0.W"] = []float64{1}
	if err := LoadStateDict(m, bad); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	r := xrand.New(9)
	a := NewMLP("m", []int{3, 5, 2}, Tanh, r)
	var buf bytes.Buffer
	meta := map[string]string{"arch": "3-5-2", "trainedOn": "unit-test"}
	if err := SaveCheckpoint(&buf, a, meta); err != nil {
		t.Fatal(err)
	}
	b := NewMLP("m", []int{3, 5, 2}, Tanh, r.Split("b"))
	cp, err := LoadInto(&buf, b)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Meta["arch"] != "3-5-2" {
		t.Fatalf("meta lost: %v", cp.Meta)
	}
	x := tensor.FromRows([][]float64{{1, 2, 3}})
	ao, bo := a.Forward(x), b.Forward(x)
	for i := range ao.Data {
		if ao.Data[i] != bo.Data[i] {
			t.Fatal("checkpoint round trip changed outputs")
		}
	}
}

func TestCheckpointBadFormat(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("not a gob stream")
	if _, err := LoadCheckpoint(&buf); err == nil {
		t.Fatal("garbage accepted as checkpoint")
	}
}

func TestClipGradNorm(t *testing.T) {
	w := tensor.New([]float64{3, 4}, 1, 2).RequireGrad()
	w.Grad = []float64{30, 40}
	holder := paramHolder{{Name: "w", T: w}}
	norm := ClipGradNorm(holder, 5)
	if math.Abs(norm-50) > 1e-9 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if math.Abs(w.Grad[0]-3) > 1e-9 || math.Abs(w.Grad[1]-4) > 1e-9 {
		t.Fatalf("clipped grads = %v", w.Grad)
	}
	// Norm below threshold: untouched.
	ClipGradNorm(holder, 100)
	if math.Abs(w.Grad[0]-3) > 1e-9 {
		t.Fatal("clip modified small gradient")
	}
}

func TestNumParamsAndNames(t *testing.T) {
	r := xrand.New(10)
	m := NewMLP("m", []int{3, 4, 2}, ReLU, r)
	// (3*4 + 4) + (4*2 + 2) = 26
	if n := NumParams(m); n != 26 {
		t.Fatalf("NumParams = %d", n)
	}
	names := ParamNames(m)
	if len(names) != 4 || names[0] != "m.l0.B" {
		t.Fatalf("ParamNames = %v", names)
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewLinear("l", 4, 4, xrand.New(42))
	b := NewLinear("l", 4, 4, xrand.New(42))
	for i := range a.W.Data {
		if a.W.Data[i] != b.W.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	r := xrand.New(11)
	m := NewMLP("bench", []int{16, 64, 64, 1}, ReLU, r)
	x := tensor.Zeros(32, 16)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	y := tensor.Zeros(32, 1)
	opt := NewAdam(m, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := tensor.MSE(m.Forward(x), y)
		opt.ZeroGrad()
		loss.Backward()
		opt.Step()
	}
}
