#include "textflag.h"

// AVX2 arms of matmulAcc, AddMMRowInto, matmulNTAcc and matmulTNAcc. Every
// output cell is computed with the scalar kernel's exact expression order —
// one VMULPD per product and one VADDPD per sum, never a fused
// multiply-add — so the results are bit-identical to the Go loops (NaN
// payloads aside).
//
// matmulNTRowAVX2, the backward dX = dY·Wᵀ, keeps the scalar dot
// product's two running sums per cell (even and odd terms, each from +0)
// and vectorises across output columns instead of along the dot product:
// its caller transposes W once per call into arena scratch, so the kernel
// streams rows of Wᵀ in the same 16-, 4- and 1-column strips as
// matmulRowAVX2. It has no zero-skip: a zero times an infinity must give
// the scalar kernel's NaN.
//
// matmulRowAVX2 is one kernel for both row forms: it starts each strip's
// accumulators from an init row (the bias for AddMMRowInto, the dst row
// itself for a plain accumulate) and passes every result through
// VMAXPD with a floor as the first source before the store. VMAXPD
// returns its second source unless the first is greater — on NaN and on
// two zeros as well — so a floor of 0 is exactly the scalar ReLU rule
// "if v < 0 { v = 0 }" (−0 and NaN stay), and a floor of −Inf returns
// every value unchanged. The ReLU costs one instruction per four cells
// and no branch.
//
// Registers in matmulRowAVX2:
//   DI dst row, SI a row, DX b, R8 n*8 (one b row in bytes),
//   R9 (k&^3)*8, R10 k*8, R11 l*8 (k offset), R12 &b[l][j], R13 &b[l+2][j],
//   BX j*8 (column offset), CX strip end then the init row, AX scratch;
//   Y0-Y3 the dst strip, Y4-Y7 a[l..l+3] broadcast, Y8-Y11 products and
//   partial sums, Y13 the floor broadcast, Y14 zero.

// CHUNK adds (((a0*b0 + a1*b1) + a2*b2) + a3*b3) to acc for the four
// columns at byte offset off of the strip.
#define CHUNK(off, acc, t, u) \
	VMULPD off(R12), Y4, t; \
	VMULPD off(R12)(R8*1), Y5, u; \
	VADDPD u, t, t; \
	VMULPD off(R13), Y6, u; \
	VADDPD u, t, t; \
	VMULPD off(R13)(R8*1), Y7, u; \
	VADDPD u, t, t; \
	VADDPD t, acc, acc

// TAIL adds a[l]*b[l] to acc for the four columns at byte offset off.
#define TAIL(off, acc, t) \
	VMULPD off(R12), Y4, t; \
	VADDPD t, acc, acc

// SKIPCHUNK jumps to skip when a[l..l+3] are all ±0 (NaN is not zero).
#define SKIPCHUNK(skip) \
	VCMPPD $4, (SI)(R11*1), Y14, Y8; \
	VMOVMSKPD Y8, AX; \
	TESTL AX, AX; \
	JZ skip

// SKIPZERO jumps to skip when the scalar in X4 is ±0 (unordered is not).
#define SKIPZERO(do, skip) \
	VUCOMISD X14, X4; \
	JPS do; \
	JEQ skip

// func matmulRowAVX2(dst, init, a, b []float64, floor float64)
TEXT ·matmulRowAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ a_base+48(FP), SI
	MOVQ a_len+56(FP), R10
	MOVQ b_base+72(FP), DX
	VBROADCASTSD floor+96(FP), Y13
	SHLQ $3, R8
	MOVQ R10, R9
	ANDQ $-4, R9
	SHLQ $3, R9
	SHLQ $3, R10
	VXORPD Y14, Y14, Y14
	XORQ BX, BX

strip16:
	LEAQ 128(BX), CX
	CMPQ CX, R8
	JGT  strip4
	MOVQ init_base+24(FP), CX
	VMOVUPD 0(CX)(BX*1), Y0
	VMOVUPD 32(CX)(BX*1), Y1
	VMOVUPD 64(CX)(BX*1), Y2
	VMOVUPD 96(CX)(BX*1), Y3
	LEAQ (DX)(BX*1), R12
	XORQ R11, R11

chunk16:
	CMPQ R11, R9
	JGE  tail16
	SKIPCHUNK(skip16)
	VBROADCASTSD 0(SI)(R11*1), Y4
	VBROADCASTSD 8(SI)(R11*1), Y5
	VBROADCASTSD 16(SI)(R11*1), Y6
	VBROADCASTSD 24(SI)(R11*1), Y7
	LEAQ (R12)(R8*2), R13
	CHUNK(0, Y0, Y8, Y9)
	CHUNK(32, Y1, Y10, Y11)
	CHUNK(64, Y2, Y8, Y9)
	CHUNK(96, Y3, Y10, Y11)

skip16:
	ADDQ $32, R11
	LEAQ (R12)(R8*4), R12
	JMP  chunk16

tail16:
	CMPQ R11, R10
	JGE  store16
	VMOVSD (SI)(R11*1), X4
	SKIPZERO(do16, next16)

do16:
	VBROADCASTSD (SI)(R11*1), Y4
	TAIL(0, Y0, Y8)
	TAIL(32, Y1, Y9)
	TAIL(64, Y2, Y10)
	TAIL(96, Y3, Y11)

next16:
	ADDQ $8, R11
	ADDQ R8, R12
	JMP  tail16

store16:
	VMAXPD  Y0, Y13, Y0
	VMAXPD  Y1, Y13, Y1
	VMAXPD  Y2, Y13, Y2
	VMAXPD  Y3, Y13, Y3
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     strip16

strip4:
	LEAQ 32(BX), CX
	CMPQ CX, R8
	JGT  strip1
	MOVQ init_base+24(FP), CX
	VMOVUPD 0(CX)(BX*1), Y0
	LEAQ (DX)(BX*1), R12
	XORQ R11, R11

chunk4:
	CMPQ R11, R9
	JGE  tail4
	SKIPCHUNK(skip4)
	VBROADCASTSD 0(SI)(R11*1), Y4
	VBROADCASTSD 8(SI)(R11*1), Y5
	VBROADCASTSD 16(SI)(R11*1), Y6
	VBROADCASTSD 24(SI)(R11*1), Y7
	LEAQ (R12)(R8*2), R13
	CHUNK(0, Y0, Y8, Y9)

skip4:
	ADDQ $32, R11
	LEAQ (R12)(R8*4), R12
	JMP  chunk4

tail4:
	CMPQ R11, R10
	JGE  store4
	VMOVSD (SI)(R11*1), X4
	SKIPZERO(do4, next4)

do4:
	VBROADCASTSD (SI)(R11*1), Y4
	TAIL(0, Y0, Y8)

next4:
	ADDQ $8, R11
	ADDQ R8, R12
	JMP  tail4

store4:
	VMAXPD  Y0, Y13, Y0
	VMOVUPD Y0, 0(DI)(BX*1)
	ADDQ    $32, BX
	JMP     strip4

	// Columns past the last multiple of four, one at a time with the
	// scalar forms of the same instructions.
strip1:
	CMPQ BX, R8
	JGE  done
	MOVQ init_base+24(FP), CX
	VMOVSD (CX)(BX*1), X0
	LEAQ (DX)(BX*1), R12
	XORQ R11, R11

chunk1:
	CMPQ R11, R9
	JGE  tail1
	SKIPCHUNK(skip1)
	VMOVSD 0(SI)(R11*1), X4
	VMOVSD 8(SI)(R11*1), X5
	VMOVSD 16(SI)(R11*1), X6
	VMOVSD 24(SI)(R11*1), X7
	LEAQ (R12)(R8*2), R13
	VMULSD 0(R12), X4, X8
	VMULSD 0(R12)(R8*1), X5, X9
	VADDSD X9, X8, X8
	VMULSD 0(R13), X6, X9
	VADDSD X9, X8, X8
	VMULSD 0(R13)(R8*1), X7, X9
	VADDSD X9, X8, X8
	VADDSD X8, X0, X0

skip1:
	ADDQ $32, R11
	LEAQ (R12)(R8*4), R12
	JMP  chunk1

tail1:
	CMPQ R11, R10
	JGE  store1
	VMOVSD (SI)(R11*1), X4
	SKIPZERO(do1, next1)

do1:
	VMULSD 0(R12), X4, X8
	VADDSD X8, X0, X0

next1:
	ADDQ $8, R11
	ADDQ R8, R12
	JMP  tail1

store1:
	VMAXSD X0, X13, X0
	VMOVSD X0, (DI)(BX*1)
	ADDQ   $8, BX
	JMP    strip1

done:
	VZEROUPPER
	RET

// func matmulTNRowAVX2(dst, a, g []float64)
//
// Registers: DI dst row l, SI a, DX g, R8 n*8, R9 (n&^15)*8,
// R10 (n&^3)*8, R11 l*8, BX k*8, AX j*8; Y4 a[l] broadcast, Y14 zero.
TEXT ·matmulTNRowAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), BX
	MOVQ g_base+48(FP), DX
	MOVQ g_len+56(FP), R8
	MOVQ R8, R9
	ANDQ $-16, R9
	SHLQ $3, R9
	MOVQ R8, R10
	ANDQ $-4, R10
	SHLQ $3, R10
	SHLQ $3, R8
	SHLQ $3, BX
	VXORPD Y14, Y14, Y14
	XORQ R11, R11

rowTN:
	CMPQ R11, BX
	JGE  doneTN
	VMOVSD (SI)(R11*1), X4
	SKIPZERO(doTN, nextTN)

doTN:
	VBROADCASTSD (SI)(R11*1), Y4
	XORQ AX, AX

col16TN:
	CMPQ AX, R9
	JGE  col4TN
	VMULPD  0(DX)(AX*1), Y4, Y0
	VMULPD  32(DX)(AX*1), Y4, Y1
	VMULPD  64(DX)(AX*1), Y4, Y2
	VMULPD  96(DX)(AX*1), Y4, Y3
	VADDPD  0(DI)(AX*1), Y0, Y0
	VADDPD  32(DI)(AX*1), Y1, Y1
	VADDPD  64(DI)(AX*1), Y2, Y2
	VADDPD  96(DI)(AX*1), Y3, Y3
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     col16TN

col4TN:
	CMPQ AX, R10
	JGE  col1TN
	VMULPD  0(DX)(AX*1), Y4, Y0
	VADDPD  0(DI)(AX*1), Y0, Y0
	VMOVUPD Y0, 0(DI)(AX*1)
	ADDQ    $32, AX
	JMP     col4TN

col1TN:
	CMPQ AX, R8
	JGE  nextTN
	VMULSD (DX)(AX*1), X4, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    col1TN

nextTN:
	ADDQ $8, R11
	ADDQ R8, DI
	JMP  rowTN

doneTN:
	VZEROUPPER
	RET

// func matmulNTRowAVX2(dst, g, bT []float64)
//
// One row of matmulNTAcc: dst[l] += s0 + s1 for l < k = len(dst), where
// s0 sums g[j]·bT[j][l] over even j and s1 over odd j, both from +0 in
// ascending j, and an odd n's last term (j = n−1, even) goes to s0. That
// is the scalar kernel's dot product per cell, vectorised across l on the
// transpose bT [n,k] of b: a 16-column strip keeps its four s0 and four
// s1 vectors in Y0–Y3 and Y4–Y7 over all of n, then 4-column strips,
// then single columns with the scalar forms. There is no zero-skip: 0·Inf
// must stay NaN as the scalar product makes it.
//
// Registers: DI dst row, SI g row, DX bT, R8 k*8 (one bT row in bytes),
// R9 (n&^1)*8, R10 n*8, R11 j*8, R12 &bT[j][l], R13 &bT[j+1][l],
// BX l*8 (column offset), CX strip end; Y8 g[j] broadcast, Y9 g[j+1]
// broadcast, Y10-Y13 products.

// NTTERM adds g·bT[off] to acc for the four columns at byte offset off of
// the bT row at r.
#define NTTERM(r, off, g, acc, t) \
	VMULPD off(r), g, t; \
	VADDPD t, acc, acc

TEXT ·matmulNTRowAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), R10
	MOVQ bT_base+48(FP), DX
	MOVQ R10, R9
	ANDQ $-2, R9
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R8
	XORQ BX, BX

strip16NT:
	LEAQ 128(BX), CX
	CMPQ CX, R8
	JGT  strip4NT
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (DX)(BX*1), R12
	XORQ R11, R11

pair16NT:
	CMPQ R11, R9
	JGE  odd16NT
	VBROADCASTSD 0(SI)(R11*1), Y8
	VBROADCASTSD 8(SI)(R11*1), Y9
	LEAQ (R12)(R8*1), R13
	NTTERM(R12, 0, Y8, Y0, Y10)
	NTTERM(R12, 32, Y8, Y1, Y11)
	NTTERM(R12, 64, Y8, Y2, Y12)
	NTTERM(R12, 96, Y8, Y3, Y13)
	NTTERM(R13, 0, Y9, Y4, Y10)
	NTTERM(R13, 32, Y9, Y5, Y11)
	NTTERM(R13, 64, Y9, Y6, Y12)
	NTTERM(R13, 96, Y9, Y7, Y13)
	ADDQ $16, R11
	LEAQ (R12)(R8*2), R12
	JMP  pair16NT

odd16NT:
	CMPQ R11, R10
	JGE  store16NT
	VBROADCASTSD 0(SI)(R11*1), Y8
	NTTERM(R12, 0, Y8, Y0, Y10)
	NTTERM(R12, 32, Y8, Y1, Y11)
	NTTERM(R12, 64, Y8, Y2, Y12)
	NTTERM(R12, 96, Y8, Y3, Y13)

store16NT:
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VADDPD  0(DI)(BX*1), Y0, Y0
	VADDPD  32(DI)(BX*1), Y1, Y1
	VADDPD  64(DI)(BX*1), Y2, Y2
	VADDPD  96(DI)(BX*1), Y3, Y3
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     strip16NT

strip4NT:
	LEAQ 32(BX), CX
	CMPQ CX, R8
	JGT  strip1NT
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	LEAQ (DX)(BX*1), R12
	XORQ R11, R11

pair4NT:
	CMPQ R11, R9
	JGE  odd4NT
	VBROADCASTSD 0(SI)(R11*1), Y8
	VBROADCASTSD 8(SI)(R11*1), Y9
	NTTERM(R12, 0, Y8, Y0, Y10)
	VMULPD 0(R12)(R8*1), Y9, Y11
	VADDPD Y11, Y4, Y4
	ADDQ $16, R11
	LEAQ (R12)(R8*2), R12
	JMP  pair4NT

odd4NT:
	CMPQ R11, R10
	JGE  store4NT
	VBROADCASTSD 0(SI)(R11*1), Y8
	NTTERM(R12, 0, Y8, Y0, Y10)

store4NT:
	VADDPD  Y4, Y0, Y0
	VADDPD  0(DI)(BX*1), Y0, Y0
	VMOVUPD Y0, 0(DI)(BX*1)
	ADDQ    $32, BX
	JMP     strip4NT

	// Columns past the last multiple of four, one at a time with the
	// scalar forms of the same instructions.
strip1NT:
	CMPQ BX, R8
	JGE  doneNT
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	LEAQ (DX)(BX*1), R12
	XORQ R11, R11

pair1NT:
	CMPQ R11, R9
	JGE  odd1NT
	VMOVSD 0(SI)(R11*1), X8
	VMOVSD 8(SI)(R11*1), X9
	VMULSD 0(R12), X8, X10
	VADDSD X10, X0, X0
	VMULSD 0(R12)(R8*1), X9, X11
	VADDSD X11, X4, X4
	ADDQ   $16, R11
	LEAQ   (R12)(R8*2), R12
	JMP    pair1NT

odd1NT:
	CMPQ   R11, R10
	JGE    store1NT
	VMOVSD 0(SI)(R11*1), X8
	VMULSD 0(R12), X8, X10
	VADDSD X10, X0, X0

store1NT:
	VADDSD X4, X0, X0
	VADDSD (DI)(BX*1), X0, X0
	VMOVSD X0, (DI)(BX*1)
	ADDQ   $8, BX
	JMP    strip1NT

doneNT:
	VZEROUPPER
	RET

// func addMinAVX2(dst, x []float64, a float64)
//
// dst[i] += a < x[i] ? a : x[i] for i < len(dst). VMINPD with a as its
// first operand returns the second (x[i]) unless a < x[i] — on NaN and
// on two zeros as well — which is the scalar arm's compare, and each cell
// then takes one VADDPD, so the arms agree bit for bit (NaN payloads
// aside).
//
// Registers: DI dst, SI x, CX len(dst)*8, R9 (len&^15)*8, R10 (len&^3)*8,
// AX i*8; Y4 a broadcast.
TEXT ·addMinAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y4
	MOVQ CX, R9
	ANDQ $-16, R9
	SHLQ $3, R9
	MOVQ CX, R10
	ANDQ $-4, R10
	SHLQ $3, R10
	SHLQ $3, CX
	XORQ AX, AX

min16:
	CMPQ AX, R9
	JGE  min4
	VMINPD  0(SI)(AX*1), Y4, Y0
	VMINPD  32(SI)(AX*1), Y4, Y1
	VMINPD  64(SI)(AX*1), Y4, Y2
	VMINPD  96(SI)(AX*1), Y4, Y3
	VADDPD  0(DI)(AX*1), Y0, Y0
	VADDPD  32(DI)(AX*1), Y1, Y1
	VADDPD  64(DI)(AX*1), Y2, Y2
	VADDPD  96(DI)(AX*1), Y3, Y3
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     min16

min4:
	CMPQ AX, R10
	JGE  min1
	VMINPD  0(SI)(AX*1), Y4, Y0
	VADDPD  0(DI)(AX*1), Y0, Y0
	VMOVUPD Y0, 0(DI)(AX*1)
	ADDQ    $32, AX
	JMP     min4

min1:
	CMPQ AX, CX
	JGE  doneMin
	VMINSD (SI)(AX*1), X4, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    min1

doneMin:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
