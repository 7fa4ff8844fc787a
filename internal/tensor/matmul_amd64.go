package tensor

// useAVX2 selects the AVX2 arms of matmulAcc, AddMMRowInto, matmulNTAcc,
// matmulTNAcc and AddMin. It is set once, from CPUID and XGETBV, when the
// package initialises; the package's own tests flip it to compare the two
// arms.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// matmulRowAVX2 is one row of matmulAcc and AddMMRowInto:
// dst [n] = max(floor, init [n] + a [k] · b [k,n]), with n = len(dst),
// k = len(a), len(init) ≥ n and len(b) ≥ k*n. init may be dst itself. The
// max is VMAXPD with floor as the first source, which returns the sum
// unless floor is greater: a floor of 0 is the scalar ReLU, −Inf none.
//
//go:noescape
func matmulRowAVX2(dst, init, a, b []float64, floor float64)

// matmulTNRowAVX2 is one row i of matmulTNAcc: dst [k,n] += a[i]ᵀ · g[i],
// with a = a[i] [k], g = g[i] [n] and len(dst) ≥ k*n.
//
//go:noescape
func matmulTNRowAVX2(dst, a, g []float64)

// matmulNTRowAVX2 is one row i of matmulNTAcc: dst [k] += g[i] · bT, with
// k = len(dst), g = g[i] [n], n = len(g) and bT = bᵀ [n,k],
// len(bT) ≥ n*k.
//
//go:noescape
func matmulNTRowAVX2(dst, g, bT []float64)

// addMinAVX2 is AddMin's AVX2 arm: dst[i] += a < x[i] ? a : x[i] for
// i < len(dst), with len(x) ≥ len(dst).
//
//go:noescape
func addMinAVX2(dst, x []float64, a float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
