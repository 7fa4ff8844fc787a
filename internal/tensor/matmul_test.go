package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/xrand"
)

// The AVX2 arms of matmulAcc and matmulTNAcc must reproduce the scalar
// arms bit for bit. The one allowance is NaN: x86 propagates the payload of
// the first NaN operand, and commuting an addition changes which one that
// is, so any two NaNs count as equal.

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU has no AVX2: the scalar kernel is the only arm")
	}
}

// withScalar runs f on the scalar arm and restores the dispatch after.
func withScalar(f func()) {
	useAVX2 = false
	defer func() { useAVX2 = true }()
	f()
}

func sameBits(x, y float64) bool {
	if math.IsNaN(x) && math.IsNaN(y) {
		return true
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// specials are the values where a reordered or fused kernel would show:
// signed zeros, subnormals, infinities, NaN, and magnitudes that overflow
// or cancel.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, 1e308, 1 + 0x1p-52, 1e-300,
}

// fillMixed draws a mix of normal values, zero runs (whole four-wide k
// chunks and tail entries that the kernels skip) and specials.
func fillMixed(r *xrand.Rand, xs []float64, specialShare float64) {
	for i := range xs {
		switch u := r.Float64(); {
		case u < 0.3:
			xs[i] = 0
		case u < 0.3+specialShare:
			xs[i] = specials[r.Intn(len(specials))]
		default:
			xs[i] = r.Normal(0, 1)
		}
	}
	// Zero a few aligned runs so some rows have all-zero chunks.
	for z := 0; z < len(xs)/16; z++ {
		start := r.Intn(len(xs)) &^ 3
		for i := start; i < start+4 && i < len(xs); i++ {
			if r.Float64() < 0.5 {
				xs[i] = math.Copysign(0, -1)
			} else {
				xs[i] = 0
			}
		}
	}
}

// diffArms runs both kernels on both arms from the same inputs and reports
// the first cell that differs. len(b) ≥ max(k*n, m*n): matmulAcc reads b as
// [k,n] and matmulTNAcc reads its first m*n values as g [m,n].
func diffArms(t testing.TB, a, b, dst []float64, m, k, n int) {
	t.Helper()
	want := append([]float64(nil), dst...)
	withScalar(func() { matmulAcc(want, a, b, m, k, n) })
	got := append([]float64(nil), dst...)
	matmulAcc(got, a, b, m, k, n)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("matmulAcc m=%d k=%d n=%d: cell (%d,%d) = %v (%#x), scalar %v (%#x)",
				m, k, n, i/n, i%n, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	g := b[:m*n]
	dstTN := make([]float64, k*n)
	copy(dstTN, dst)
	wantTN := append([]float64(nil), dstTN...)
	withScalar(func() { matmulTNAcc(wantTN, a, g, m, k, n) })
	gotTN := append([]float64(nil), dstTN...)
	matmulTNAcc(gotTN, a, g, m, k, n)
	for i := range wantTN {
		if !sameBits(gotTN[i], wantTN[i]) {
			t.Fatalf("matmulTNAcc m=%d k=%d n=%d: cell (%d,%d) = %v, scalar %v",
				m, k, n, i/n, i%n, gotTN[i], wantTN[i])
		}
	}
}

func TestMatmulAVX2MatchesScalar(t *testing.T) {
	requireAVX2(t)
	r := xrand.New(29)
	check := func(m, k, n int, share float64) {
		a := make([]float64, m*k)
		b := make([]float64, max(k*n, m*n))
		dst := make([]float64, m*n)
		fillMixed(r, a, share)
		fillMixed(r, b, share)
		fillMixed(r, dst, share)
		diffArms(t, a, b, dst, m, k, n)
	}
	dims := []int{0, 1, 3, 4, 5, 7, 16, 17, 64, 68, 213}
	for _, m := range []int{0, 1, 3, 5, 64} {
		for _, k := range dims {
			for _, n := range dims {
				for _, share := range []float64{0, 0.05, 0.5} {
					check(m, k, n, share)
				}
			}
		}
	}
	// Random shapes the table misses.
	for trial := 0; trial < 300; trial++ {
		check(r.Intn(9), r.Intn(80), r.Intn(80), []float64{0, 0.02, 0.3}[trial%3])
	}
}

// FuzzMatmulAcc decodes a shape and the operands from the fuzz bytes: the
// first three bytes pick m, k and n, every following eight bytes are one
// float64 (any bit pattern), and the operands are filled from that stream in
// turn, wrapping around when it runs out.
func FuzzMatmulAcc(f *testing.F) {
	requireAVX2(f)
	f.Add([]byte{1, 5, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{2, 4, 4})
	f.Add(append([]byte{3, 7, 9}, floatBytes(1, 0, math.Copysign(0, -1), 0, math.Inf(1), math.NaN(), 5e-324, -2.5)...))
	f.Add(append([]byte{1, 68, 64}, floatBytes(0.5, -1.25, 3, 0, 0, 0, 0, 7)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := int(data[0]%9), int(data[1]%72), int(data[2]%72)
		var vals []float64
		for p := 3; p+8 <= len(data); p += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[p:])))
		}
		next := 0
		fill := func(xs []float64) {
			for i := range xs {
				if len(vals) == 0 {
					xs[i] = float64(i%5) - 2
					continue
				}
				xs[i] = vals[next%len(vals)]
				next++
			}
		}
		a := make([]float64, m*k)
		b := make([]float64, max(k*n, m*n))
		dst := make([]float64, m*n)
		fill(a)
		fill(b)
		fill(dst)
		diffArms(t, a, b, dst, m, k, n)
	})
}

// diffAddMin runs AddMin on both arms from the same inputs and reports the
// first cell that differs.
func diffAddMin(t testing.TB, dst, x []float64, a float64) {
	t.Helper()
	want := append([]float64(nil), dst...)
	withScalar(func() { AddMin(want, x, a) })
	got := append([]float64(nil), dst...)
	AddMin(got, x, a)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("AddMin len %d a=%v: cell %d = %v (%#x), scalar %v (%#x); dst %v x %v",
				len(dst), a, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), dst[i], x[i])
		}
	}
}

// TestAddMinAVX2MatchesScalar: every special as a and in every cell, at the
// lengths that exercise each loop of the AVX2 arm (0–9: the one-cell tail
// alone, one four-wide chunk and the tail) and at longer ones that reach the
// sixteen-wide loop.
func TestAddMinAVX2MatchesScalar(t *testing.T) {
	requireAVX2(t)
	r := xrand.New(31)
	var lengths []int
	for n := 0; n <= 9; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 15, 16, 17, 35, 480)
	as := append(append([]float64(nil), specials...), 0.5, 2, 1e-310)
	for _, n := range lengths {
		for _, a := range as {
			for _, share := range []float64{0, 0.3, 1} {
				dst := make([]float64, n)
				x := make([]float64, n+r.Intn(3))
				fillMixed(r, dst, share)
				fillMixed(r, x, share)
				diffAddMin(t, dst, x, a)
			}
		}
	}
	// Every (a, x, dst) triple of specials in one cell.
	for _, a := range specials {
		for _, x := range specials {
			for _, d := range specials {
				diffAddMin(t, []float64{d}, []float64{x}, a)
				diffAddMin(t, []float64{d, d, d, d, d}, []float64{x, x, x, x, x}, a)
			}
		}
	}
}

// FuzzAddMin decodes the fuzz bytes as float64s (any bit pattern): the first
// is a, and the rest are split between dst and x, the first byte picking the
// split.
func FuzzAddMin(f *testing.F) {
	requireAVX2(f)
	f.Add([]byte{2})
	f.Add(append([]byte{1}, floatBytes(0.5, 0, math.Copysign(0, -1), math.NaN(), 1)...))
	f.Add(append([]byte{5}, floatBytes(math.NaN(), 1, 2, 3, 4, 5, math.Inf(1), 5e-324, -1, math.Copysign(0, -1), 0)...))
	f.Add(append([]byte{9}, floatBytes(math.Copysign(0, -1), 0, 0, 0, 0, 0, 0, 0, 0, 0, math.Copysign(0, -1), 1e-310, -0.25, math.Inf(-1), 7, 8, 9, 10, 11)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		var vals []float64
		for p := 1; p+8 <= len(data); p += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[p:])))
		}
		a, rest := vals[0], vals[1:]
		n := min(int(data[0]), len(rest)/2)
		diffAddMin(t, rest[:n], rest[n:], a)
	})
}

func floatBytes(xs ...float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// BenchmarkMatmulAcc times both arms on the model's dense shapes: the
// 213×68→64 first GIN layer over a Synthetic-256 trace, the one-row
// incremental update of that layer, and the 64→64 hidden layer.
func BenchmarkMatmulAcc(b *testing.B) {
	r := xrand.New(1)
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{
		{"213x68x64", 213, 68, 64},
		{"1x68x64", 1, 68, 64},
		{"213x64x64", 213, 64, 64},
	} {
		a := make([]float64, sh.m*sh.k)
		w := make([]float64, sh.k*sh.n)
		dst := make([]float64, sh.m*sh.n)
		fillMixed(r, a, 0)
		fillMixed(r, w, 0)
		for _, arm := range []string{"scalar", "avx2"} {
			b.Run(sh.name+"/"+arm, func(b *testing.B) {
				if arm == "avx2" {
					requireAVX2(b)
				} else if useAVX2 {
					useAVX2 = false
					defer func() { useAVX2 = true }()
				}
				for i := 0; i < b.N; i++ {
					matmulAcc(dst, a, w, sh.m, sh.k, sh.n)
				}
			})
		}
	}
}
