//go:build !amd64

package tensor

// useAVX2 is false off amd64: the scalar kernels are the only arm.
var useAVX2 = false

func matmulRowAVX2(dst, init, a, b []float64, floor float64) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func matmulNTRowAVX2(dst, g, bT []float64) { panic("tensor: no AVX2 kernel on this architecture") }

func matmulTNRowAVX2(dst, a, g []float64) { panic("tensor: no AVX2 kernel on this architecture") }

func addMinAVX2(dst, x []float64, a float64) { panic("tensor: no AVX2 kernel on this architecture") }
