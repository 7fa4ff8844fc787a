package tensor

import (
	"math"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/testenv"
	"github.com/sleuth-rca/sleuth/internal/xrand"
)

func TestGradCheckAddMM(t *testing.T) {
	rng := xrand.New(11)
	x := randTensor(rng, 3, 4)
	w := randTensor(rng, 4, 5)
	b := randTensor(rng, 1, 5)
	err := GradCheck(func() *Tensor { return Sum(Square(AddMM(x, w, b))) },
		[]*Tensor{x, w, b}, 1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckAddMMReLU(t *testing.T) {
	rng := xrand.New(12)
	x := randTensor(rng, 4, 3)
	w := randTensor(rng, 3, 6)
	b := randTensor(rng, 1, 6)
	// ReLU's kink breaks finite differences for pre-activations within eps
	// of zero; this seed produces none closer than 1e-3.
	err := GradCheck(func() *Tensor { return Sum(Square(AddMMReLU(x, w, b))) },
		[]*Tensor{x, w, b}, 1e-6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGradCheckFusedMean(t *testing.T) {
	rng := xrand.New(13)
	a := randTensor(rng, 3, 5)
	if err := GradCheck(func() *Tensor { return Mean(Square(a)) }, []*Tensor{a}, 1e-6, 1e-4); err != nil {
		t.Fatal(err)
	}
}

// TestAddMMMatchesComposition pins the fused kernel to the unfused
// reference: forward values and gradients must agree to float tolerance
// (sum-association differs, so not bit-for-bit).
func TestAddMMMatchesComposition(t *testing.T) {
	rng := xrand.New(14)
	x := randTensor(rng, 5, 7)
	w := randTensor(rng, 7, 4)
	b := randTensor(rng, 1, 4)
	for _, l := range []*Tensor{x, w, b} {
		l.RequireGrad()
	}

	fused := AddMM(x, w, b)
	fusedReLU := AddMMReLU(x, w, b)
	ref := Add(MatMul(x, w), b)
	refReLU := ReLU(ref)
	for i := range ref.Data {
		if math.Abs(fused.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatalf("AddMM[%d] = %v, reference %v", i, fused.Data[i], ref.Data[i])
		}
		if math.Abs(fusedReLU.Data[i]-refReLU.Data[i]) > 1e-12 {
			t.Fatalf("AddMMReLU[%d] = %v, reference %v", i, fusedReLU.Data[i], refReLU.Data[i])
		}
	}

	grads := func(loss *Tensor) (gx, gw, gb []float64) {
		for _, l := range []*Tensor{x, w, b} {
			l.EnsureGrad()
			l.ZeroGrad()
		}
		loss.Backward()
		cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
		return cp(x.Grad), cp(w.Grad), cp(b.Grad)
	}
	fgx, fgw, fgb := grads(Sum(Square(AddMMReLU(x, w, b))))
	rgx, rgw, rgb := grads(Sum(Square(ReLU(Add(MatMul(x, w), b)))))
	for _, pair := range [][2][]float64{{fgx, rgx}, {fgw, rgw}, {fgb, rgb}} {
		for i := range pair[0] {
			if math.Abs(pair[0][i]-pair[1][i]) > 1e-9 {
				t.Fatalf("fused grad %v, reference %v at %d", pair[0][i], pair[1][i], i)
			}
		}
	}
}

// arenaLoss is the shared forward pass of the arena tests: a two-layer
// network with fused kernels, reductions and elementwise ops, rooted at an
// arena view of the input when ar is non-nil.
func arenaLoss(ar *Arena, x, w1, b1, w2, b2 *Tensor) *Tensor {
	in := x
	if ar != nil {
		in = ar.View(x)
	}
	h := AddMMReLU(in, w1, b1)
	out := AddMM(h, w2, b2)
	return Mean(Square(Sigmoid(out)))
}

// TestArenaBackwardMatchesHeap proves the arena changes where the tape
// lives, not what it computes: loss values and parameter gradients are
// bit-identical with and without an arena, across repeated Reset cycles.
func TestArenaBackwardMatchesHeap(t *testing.T) {
	rng := xrand.New(15)
	x := randTensor(rng, 6, 4)
	w1, b1 := randTensor(rng, 4, 8), randTensor(rng, 1, 8)
	w2, b2 := randTensor(rng, 8, 3), randTensor(rng, 1, 3)
	params := []*Tensor{w1, b1, w2, b2}
	for _, p := range params {
		p.RequireGrad()
	}
	run := func(ar *Arena) (float64, [][]float64) {
		for _, p := range params {
			p.EnsureGrad()
			p.ZeroGrad()
		}
		loss := arenaLoss(ar, x, w1, b1, w2, b2)
		loss.Backward()
		v := loss.Item()
		grads := make([][]float64, len(params))
		for i, p := range params {
			grads[i] = append([]float64(nil), p.Grad...)
		}
		return v, grads
	}

	wantLoss, wantGrads := run(nil)
	ar := NewArena()
	for cycle := 0; cycle < 3; cycle++ {
		gotLoss, gotGrads := run(ar)
		ar.Reset()
		if gotLoss != wantLoss {
			t.Fatalf("cycle %d: arena loss %v != heap loss %v", cycle, gotLoss, wantLoss)
		}
		for pi := range wantGrads {
			for i := range wantGrads[pi] {
				if gotGrads[pi][i] != wantGrads[pi][i] {
					t.Fatalf("cycle %d: param %d grad[%d] = %v, want %v",
						cycle, pi, i, gotGrads[pi][i], wantGrads[pi][i])
				}
			}
		}
	}
}

// TestArenaReusesOversizedBuffers drives tensors past the chunk size so the
// power-of-two freelist engages, and checks Reset makes the footprint
// converge instead of growing per cycle.
func TestArenaReusesOversizedBuffers(t *testing.T) {
	ar := NewArena()
	big := 1 << 16 // floats, above chunkFloats
	run := func() {
		a := NewIn(ar, big/4, 4)
		b := AddScalar(a, 1)
		c := Mul(b, b)
		_ = Sum(c).Item()
	}
	run()
	ar.Reset()
	base := ar.footprint()
	for i := 0; i < 5; i++ {
		run()
		ar.Reset()
	}
	if got := ar.footprint(); got != base {
		t.Fatalf("footprint grew across cycles: %d -> %d", base, got)
	}
}

// TestArenaSteadyStateAllocs asserts the headline property: after warm-up a
// forward+backward+Reset cycle allocates nothing from the heap.
func TestArenaSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race detector instrumentation allocates")
	}
	rng := xrand.New(16)
	x := randTensor(rng, 6, 4)
	w1, b1 := randTensor(rng, 4, 8), randTensor(rng, 1, 8)
	w2, b2 := randTensor(rng, 8, 3), randTensor(rng, 1, 3)
	for _, p := range []*Tensor{w1, b1, w2, b2} {
		p.RequireGrad()
	}
	ar := NewArena()
	step := func() {
		loss := arenaLoss(ar, x, w1, b1, w2, b2)
		loss.Backward()
		for _, p := range []*Tensor{w1, b1, w2, b2} {
			p.ZeroGrad()
		}
		ar.Reset()
	}
	step() // warm-up: grows chunks and parameter gradients
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("steady-state arena step allocates %.1f times per run, want 0", avg)
	}
}
