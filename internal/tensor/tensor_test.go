package tensor

import (
	"math"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func randTensor(r *xrand.Rand, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = r.Normal(0, 1)
	}
	return t
}

func TestCreationAndAccessors(t *testing.T) {
	m := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if m.Rows() != 2 || m.Cols() != 3 || m.Numel() != 6 {
		t.Fatalf("shape accessors wrong: %v", m)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatal("Set failed")
	}
	if Scalar(3).Item() != 3 {
		t.Fatal("Scalar/Item failed")
	}
	if Full(2, 2, 2).Data[3] != 2 {
		t.Fatal("Full failed")
	}
	fr := FromRows([][]float64{{1, 2}, {3, 4}})
	if fr.At(1, 0) != 3 {
		t.Fatal("FromRows failed")
	}
}

func TestCreationPanics(t *testing.T) {
	cases := []func(){
		func() { New([]float64{1}, 2) },
		func() { Zeros(0) },
		func() { FromRows([][]float64{{1, 2}, {3}}) },
		func() { Scalar(1).Backward(); Zeros(2, 2).Item() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAddSubMulDivForward(t *testing.T) {
	a := New([]float64{1, 2, 3, 4}, 2, 2)
	b := New([]float64{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b).Data[3]; got != 12 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data[0]; got != 4 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data[1]; got != 12 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Div(b, a).Data[1]; got != 3 {
		t.Fatalf("Div = %v", got)
	}
}

func TestRowBroadcast(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	row := New([]float64{10, 20, 30}, 1, 3)
	out := Add(a, row)
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("broadcast Add = %v", out.Data)
		}
	}
	sc := Scalar(100)
	out2 := Add(a, sc)
	if out2.Data[5] != 106 {
		t.Fatalf("scalar broadcast = %v", out2.Data)
	}
}

func TestMatMulForward(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := New([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	out := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", out.Data, want)
		}
	}
}

func TestBackwardSimpleChain(t *testing.T) {
	// loss = sum((a*b + a)^2); closed-form gradient check on one element.
	a := Scalar(2).RequireGrad()
	b := Scalar(3).RequireGrad()
	loss := Sum(Square(Add(Mul(a, b), a)))
	loss.Backward()
	// f = (ab+a)^2 = (2*3+2)^2 = 64; df/da = 2(ab+a)(b+1) = 2*8*4 = 64
	// df/db = 2(ab+a)*a = 2*8*2 = 32
	if a.Grad[0] != 64 || b.Grad[0] != 32 {
		t.Fatalf("grads = %v %v, want 64 32", a.Grad[0], b.Grad[0])
	}
}

func TestBackwardDiamondReuse(t *testing.T) {
	// x used twice: loss = x*x + x → grad = 2x + 1.
	x := Scalar(5).RequireGrad()
	loss := Sum(Add(Mul(x, x), x))
	loss.Backward()
	if x.Grad[0] != 11 {
		t.Fatalf("diamond grad = %v, want 11", x.Grad[0])
	}
}

func TestBackwardAccumulatesAcrossCalls(t *testing.T) {
	x := Scalar(1).RequireGrad()
	Sum(Mul(x, x)).Backward()
	Sum(Mul(x, x)).Backward()
	if x.Grad[0] != 4 {
		t.Fatalf("accumulated grad = %v, want 4", x.Grad[0])
	}
	x.ZeroGrad()
	if x.Grad[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestGradCheckElementwiseOps(t *testing.T) {
	r := xrand.New(1)
	ops := map[string]func(*Tensor) *Tensor{
		"add":      func(a *Tensor) *Tensor { return AddScalar(a, 3) },
		"mul":      func(a *Tensor) *Tensor { return MulScalar(a, -2) },
		"neg":      Neg,
		"sigmoid":  Sigmoid,
		"tanh":     Tanh,
		"exp":      Exp,
		"square":   Square,
		"softplus": Softplus,
		"abs":      Abs,
		"pow10":    func(a *Tensor) *Tensor { return Pow10(MulScalar(a, 0.3)) },
	}
	for name, op := range ops {
		a := randTensor(r, 3, 4)
		// Keep |x| away from kinks of abs.
		for i := range a.Data {
			if math.Abs(a.Data[i]) < 0.1 {
				a.Data[i] = 0.5
			}
		}
		err := GradCheck(func() *Tensor { return Sum(op(a)) }, []*Tensor{a}, 1e-5, 1e-4)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGradCheckLogOps(t *testing.T) {
	r := xrand.New(2)
	a := Zeros(3, 3)
	for i := range a.Data {
		a.Data[i] = 0.5 + r.Float64()*3
	}
	if err := GradCheck(func() *Tensor { return Sum(Log(a)) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Errorf("log: %v", err)
	}
	if err := GradCheck(func() *Tensor { return Sum(Log10(a)) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Errorf("log10: %v", err)
	}
}

func TestGradCheckBinaryOpsWithBroadcast(t *testing.T) {
	r := xrand.New(3)
	a := randTensor(r, 4, 3)
	row := randTensor(r, 1, 3)
	for i := range row.Data {
		row.Data[i] = 1 + r.Float64() // keep away from 0 for Div
	}
	sc := Scalar(2.5)
	type c struct {
		name string
		fn   func() *Tensor
	}
	cases := []c{
		{"add-row", func() *Tensor { return Sum(Add(a, row)) }},
		{"sub-row", func() *Tensor { return Sum(Sub(a, row)) }},
		{"mul-row", func() *Tensor { return Sum(Mul(a, row)) }},
		{"div-row", func() *Tensor { return Sum(Div(a, row)) }},
		{"mul-scalar", func() *Tensor { return Sum(Mul(a, sc)) }},
	}
	for _, cs := range cases {
		if err := GradCheck(cs.fn, []*Tensor{a, row, sc}, 1e-6, 1e-4); err != nil {
			t.Errorf("%s: %v", cs.name, err)
		}
	}
}

func TestGradCheckMatMul(t *testing.T) {
	r := xrand.New(4)
	a := randTensor(r, 3, 5)
	b := randTensor(r, 5, 2)
	err := GradCheck(func() *Tensor { return Sum(Square(MatMul(a, b))) }, []*Tensor{a, b}, 1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckReductionsAndShape(t *testing.T) {
	r := xrand.New(5)
	a := randTensor(r, 4, 3)
	cases := map[string]func() *Tensor{
		"sum":     func() *Tensor { return Sum(a) },
		"mean":    func() *Tensor { return Mean(Square(a)) },
		"sumrows": func() *Tensor { return Sum(Square(SumRows(a))) },
		"slice":   func() *Tensor { return Sum(Square(SliceCols(a, 1, 3))) },
		"concat": func() *Tensor {
			return Sum(Square(ConcatCols(a, MulScalar(a, 2))))
		},
	}
	for name, fn := range cases {
		if err := GradCheck(fn, []*Tensor{a}, 1e-6, 1e-4); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestIndexRowsForwardBackward(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 3, 2).RequireGrad()
	out := IndexRows(a, []int{2, 0, 2})
	want := []float64{5, 6, 1, 2, 5, 6}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("IndexRows = %v", out.Data)
		}
	}
	Sum(out).Backward()
	// Row 2 gathered twice → grad 2; row 0 once; row 1 zero.
	wantGrad := []float64{1, 1, 0, 0, 2, 2}
	for i, w := range wantGrad {
		if a.Grad[i] != w {
			t.Fatalf("IndexRows grad = %v", a.Grad)
		}
	}
}

func TestSegmentSumForwardBackward(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 3, 2).RequireGrad()
	out := SegmentSum(a, []int{1, 1, 0}, 2)
	// segment 0 = row2 = [5 6]; segment 1 = row0+row1 = [4 6]
	want := []float64{5, 6, 4, 6}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("SegmentSum = %v", out.Data)
		}
	}
	Sum(Mul(out, New([]float64{1, 1, 10, 10}, 2, 2))).Backward()
	wantGrad := []float64{10, 10, 10, 10, 1, 1}
	for i, w := range wantGrad {
		if a.Grad[i] != w {
			t.Fatalf("SegmentSum grad = %v", a.Grad)
		}
	}
}

func TestSegmentMaxForwardBackwardAndEmpty(t *testing.T) {
	a := New([]float64{1, 9, 3, 4, 5, 6}, 3, 2).RequireGrad()
	out := SegmentMax(a, []int{0, 0, 0}, 2, -7)
	// segment 0: col0 max = 5 (row2), col1 max = 9 (row0); segment 1 empty → -7.
	if out.At(0, 0) != 5 || out.At(0, 1) != 9 || out.At(1, 0) != -7 || out.At(1, 1) != -7 {
		t.Fatalf("SegmentMax = %v", out.Data)
	}
	Sum(out).Backward()
	wantGrad := []float64{0, 1, 0, 0, 1, 0}
	for i, w := range wantGrad {
		if a.Grad[i] != w {
			t.Fatalf("SegmentMax grad = %v", a.Grad)
		}
	}
}

func TestGradCheckSegmentOps(t *testing.T) {
	r := xrand.New(6)
	a := randTensor(r, 6, 3)
	seg := []int{0, 2, 1, 2, 0, 2}
	if err := GradCheck(func() *Tensor { return Sum(Square(SegmentSum(a, seg, 3))) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Errorf("segsum: %v", err)
	}
	if err := GradCheck(func() *Tensor { return Sum(Square(SegmentMax(a, seg, 3, 0))) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Errorf("segmax: %v", err)
	}
	if err := GradCheck(func() *Tensor { return Sum(Square(IndexRows(a, []int{5, 1, 1, 0}))) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Errorf("index: %v", err)
	}
}

func TestReLUFamilyGradCheck(t *testing.T) {
	r := xrand.New(7)
	a := randTensor(r, 4, 4)
	for i := range a.Data {
		// Keep inputs away from the kink at 0.
		if math.Abs(a.Data[i]) < 0.05 {
			a.Data[i] = 0.3
		}
	}
	if err := GradCheck(func() *Tensor { return Sum(ReLU(a)) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Errorf("relu: %v", err)
	}
	if err := GradCheck(func() *Tensor { return Sum(Max2(a, MulScalar(a, -1))) }, []*Tensor{a}, 1e-6, 1e-3); err != nil {
		t.Errorf("max2: %v", err)
	}
}

func TestClampGradient(t *testing.T) {
	a := New([]float64{-5, 0.5, 5}, 3).RequireGrad()
	out := Clamp(a, 0, 1)
	if out.Data[0] != 0 || out.Data[1] != 0.5 || out.Data[2] != 1 {
		t.Fatalf("Clamp = %v", out.Data)
	}
	Sum(out).Backward()
	if a.Grad[0] != 0 || a.Grad[1] != 1 || a.Grad[2] != 0 {
		t.Fatalf("Clamp grad = %v", a.Grad)
	}
}

func TestLossesForward(t *testing.T) {
	pred := New([]float64{1, 2, 3}, 3)
	target := New([]float64{1, 2, 5}, 3)
	if got := MSE(pred, target).Item(); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("MSE = %v", got)
	}
	p := New([]float64{0.9, 0.1}, 2)
	tt := New([]float64{1, 0}, 2)
	want := -(math.Log(0.9) + math.Log(0.9)) / 2
	if got := BCE(p, tt).Item(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("BCE = %v, want %v", got, want)
	}
}

func TestGradCheckLosses(t *testing.T) {
	r := xrand.New(8)
	pred := randTensor(r, 3, 2)
	target := randTensor(r, 3, 2)
	if err := GradCheck(func() *Tensor { return MSE(pred, target) }, []*Tensor{pred}, 1e-6, 1e-4); err != nil {
		t.Errorf("mse: %v", err)
	}
	logits := randTensor(r, 4, 1)
	bt := Zeros(4, 1)
	bt.Data[0], bt.Data[2] = 1, 1
	if err := GradCheck(func() *Tensor { return BCEWithLogits(logits, bt) }, []*Tensor{logits}, 1e-6, 1e-4); err != nil {
		t.Errorf("bcelogits: %v", err)
	}
	probs := Zeros(4, 1)
	for i := range probs.Data {
		probs.Data[i] = 0.2 + 0.6*r.Float64()
	}
	if err := GradCheck(func() *Tensor { return BCE(probs, bt) }, []*Tensor{probs}, 1e-6, 1e-4); err != nil {
		t.Errorf("bce: %v", err)
	}
	mu, lv := randTensor(r, 3, 4), randTensor(r, 3, 4)
	if err := GradCheck(func() *Tensor { return KLStandardNormal(mu, lv) }, []*Tensor{mu, lv}, 1e-6, 1e-4); err != nil {
		t.Errorf("kl: %v", err)
	}
}

func TestKLZeroAtStandardNormal(t *testing.T) {
	mu := Zeros(5, 3)
	lv := Zeros(5, 3)
	if got := KLStandardNormal(mu, lv).Item(); math.Abs(got) > 1e-12 {
		t.Fatalf("KL(N(0,1)||N(0,1)) = %v", got)
	}
}

func TestDetachStopsGradient(t *testing.T) {
	x := Scalar(3).RequireGrad()
	y := Mul(x, x)
	loss := Sum(Mul(y.Detach(), x))
	loss.Backward()
	// d/dx [const(9) * x] = 9, not 27.
	if x.Grad[0] != 9 {
		t.Fatalf("Detach leaked gradient: %v", x.Grad[0])
	}
}

func TestNoGradWhenNotRequired(t *testing.T) {
	a := Scalar(2)
	b := Scalar(3)
	out := Mul(a, b)
	if out.RequiresGrad() {
		t.Fatal("result requires grad with no grad leaves")
	}
	out.Backward() // must be a no-op, not a panic
	if a.Grad != nil {
		t.Fatal("gradient allocated without RequireGrad")
	}
}

func TestCheckFinite(t *testing.T) {
	a := New([]float64{1, math.NaN()}, 2)
	if a.CheckFinite() == nil {
		t.Fatal("NaN not detected")
	}
	b := New([]float64{1, 2}, 2)
	if b.CheckFinite() != nil {
		t.Fatal("finite tensor flagged")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New([]float64{1, 2}, 2)
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := xrand.New(1)
	a := randTensor(r, 64, 64)
	c := randTensor(r, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

func BenchmarkBackwardMLPGraph(b *testing.B) {
	r := xrand.New(2)
	x := randTensor(r, 32, 16)
	w1 := randTensor(r, 16, 32).RequireGrad()
	w2 := randTensor(r, 32, 1).RequireGrad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := Mean(Square(MatMul(ReLU(MatMul(x, w1)), w2)))
		loss.Backward()
		w1.ZeroGrad()
		w2.ZeroGrad()
	}
}
