//go:build !purego

#include "textflag.h"

// AVX2 kernels for the closed-form ("arith") forward GEMM tier: see
// arith.go for the strip-form math and the saturation/overflow gates
// that make every instruction below exact, and gemm_arith_amd64.go for
// the calling contracts. Both kernels process the operand tile 32 rows
// at a time in 16-bit SIMD lanes, widening into int32 accumulators on a
// cadence the caller derives from the op's worst-case strip sum, so the
// packed arithmetic can never wrap and the result is bit-identical to
// the scalar reference.

// func gemmArithAccumAVX2(acc *int32, xt *uint8, wr *uint8, cw *uint16, xm *uint16, nR, nK, nT, cad int64)
//
// Register plan:
//   DI = acc chunk base   SI = xt + rbase (advances by nR per k-step)
//   BX = wr cursor        R8 = cw base    R9 = xm base
//   R10 = nT              R11 = cad reload value
//   CX = k counter        R12 = nR        R13 = rbase
//   R14 = t counter       AX = cw row cursor  R15 = xm cursor  DX = lane-budget countdown
//   Y0,Y1 = x lanes  Y2 = xm bcast  Y3 = masked  Y4 = cw bcast
//   Y10,Y11 = packed uint16 partial sums   Y12..Y15 = int32 accumulators
TEXT ·gemmArithAccumAVX2(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), DI
	MOVQ nR+40(FP), R12
	MOVQ nT+56(FP), R10
	MOVQ cad+64(FP), R11
	MOVQ cw+24(FP), R8
	MOVQ xm+32(FP), R9

	XORQ R13, R13          // rbase = 0

rchunk:
	MOVQ R12, AX
	SUBQ R13, AX
	CMPQ AX, $32
	JLT  done              // fewer than 32 rows left: caller's scalar tail

	MOVQ xt+8(FP), SI
	ADDQ R13, SI           // x column base for this chunk
	MOVQ wr+16(FP), BX
	MOVQ nK+48(FP), CX

	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	MOVQ R11, DX           // lane budget countdown

kloop:
	TESTQ CX, CX
	JEQ   kdone

	VPMOVZXBW (SI), Y0     // 16 x levels -> 16 uint16 lanes
	VPMOVZXBW 16(SI), Y1

	MOVBQZX (BX), AX       // w level
	IMULQ   R10, AX
	LEAQ    (R8)(AX*2), AX // cw row for this level
	MOVQ    R9, R15
	MOVQ    R10, R14

tloop:
	VPBROADCASTW (R15), Y2
	VPBROADCASTW (AX), Y4
	VPAND        Y0, Y2, Y3
	VPMULLW      Y4, Y3, Y3
	VPADDW       Y3, Y10, Y10
	VPAND        Y1, Y2, Y3
	VPMULLW      Y4, Y3, Y3
	VPADDW       Y3, Y11, Y11
	ADDQ         $2, R15
	ADDQ         $2, AX
	DECQ         R14
	JNZ          tloop

	ADDQ R12, SI           // next k-step's column
	INCQ BX
	DECQ CX

	DECQ DX                // widen when the uint16 lane budget is spent
	JNZ  kloop

	VPMOVZXWD    X10, Y3
	VPADDD       Y3, Y12, Y12
	VEXTRACTI128 $1, Y10, X3
	VPMOVZXWD    X3, Y3
	VPADDD       Y3, Y13, Y13
	VPMOVZXWD    X11, Y3
	VPADDD       Y3, Y14, Y14
	VEXTRACTI128 $1, Y11, X3
	VPMOVZXWD    X3, Y3
	VPADDD       Y3, Y15, Y15
	VPXOR        Y10, Y10, Y10
	VPXOR        Y11, Y11, Y11
	MOVQ         R11, DX
	JMP          kloop

kdone:
	VPMOVZXWD    X10, Y3   // flush the partial uint16 sums
	VPADDD       Y3, Y12, Y12
	VEXTRACTI128 $1, Y10, X3
	VPMOVZXWD    X3, Y3
	VPADDD       Y3, Y13, Y13
	VPMOVZXWD    X11, Y3
	VPADDD       Y3, Y14, Y14
	VEXTRACTI128 $1, Y11, X3
	VPMOVZXWD    X3, Y3
	VPADDD       Y3, Y15, Y15

	LEAQ    (DI)(R13*4), AX
	VMOVDQU (AX), Y3
	VPADDD  Y3, Y12, Y12
	VMOVDQU Y12, (AX)
	VMOVDQU 32(AX), Y3
	VPADDD  Y3, Y13, Y13
	VMOVDQU Y13, 32(AX)
	VMOVDQU 64(AX), Y3
	VPADDD  Y3, Y14, Y14
	VMOVDQU Y14, 64(AX)
	VMOVDQU 96(AX), Y3
	VPADDD  Y3, Y15, Y15
	VMOVDQU Y15, 96(AX)

	ADDQ $32, R13
	JMP  rchunk

done:
	VZEROUPPER
	RET

// func gemmArithPairAVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad int64)
//
//   DI = acc  SI = x column cursor  BX = cwp cursor  R9 = xm base
//   R10 = nT  R11 = cad  R12 = nR  R13 = rbase  CX = pair counter
//   R14 = t counter  R15 = xm cursor  DX = lane budget  AX = scratch
//   Y0,Y1 = x columns  Y2,Y3 = interleaved pairs  Y4 = xm bcast
//   Y5 = cw bcast  Y6,Y7 = madd results  Y10,Y11 = uint16 sums
//   Y12..Y15 = int32 accumulators
TEXT ·gemmArithPairAVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ xm+24(FP), R9
	MOVQ nR+32(FP), R12
	MOVQ nT+48(FP), R10
	MOVQ cad+56(FP), R11

	XORQ R13, R13          // rbase

prchunk:
	MOVQ R12, AX
	SUBQ R13, AX
	CMPQ AX, $32
	JLT  pexit

	MOVQ xt+8(FP), SI
	ADDQ R13, SI
	MOVQ cwp+16(FP), BX
	MOVQ nKp+40(FP), CX

	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	MOVQ  R11, DX

ploop:
	TESTQ CX, CX
	JEQ   pdone

	VMOVDQU (SI), Y0        // column 2p
	VMOVDQU (SI)(R12*1), Y1 // column 2p+1
	VPUNPCKLBW Y1, Y0, Y2   // (x0,x1) byte pairs, rows 0-7 | 16-23
	VPUNPCKHBW Y1, Y0, Y3   // rows 8-15 | 24-31

	MOVQ R9, R15
	MOVQ R10, R14

ptloop:
	VPBROADCASTW (R15), Y4 // strip mask in both bytes
	VPBROADCASTW (BX), Y5  // (cw(w0), cw(w1)) byte pair
	VPAND        Y2, Y4, Y6
	VPAND        Y3, Y4, Y7
	VPMADDUBSW   Y5, Y6, Y6
	VPMADDUBSW   Y5, Y7, Y7
	VPADDW       Y6, Y10, Y10
	VPADDW       Y7, Y11, Y11
	ADDQ         $2, R15
	ADDQ         $2, BX
	DECQ         R14
	JNZ          ptloop

	LEAQ (SI)(R12*2), SI   // advance two columns
	DECQ CX

	DECQ DX
	JNZ  ploop

	VPMOVZXWD    X10, Y6
	VPADDD       Y6, Y12, Y12
	VEXTRACTI128 $1, Y10, X6
	VPMOVZXWD    X6, Y6
	VPADDD       Y6, Y13, Y13
	VPMOVZXWD    X11, Y6
	VPADDD       Y6, Y14, Y14
	VEXTRACTI128 $1, Y11, X6
	VPMOVZXWD    X6, Y6
	VPADDD       Y6, Y15, Y15
	VPXOR        Y10, Y10, Y10
	VPXOR        Y11, Y11, Y11
	MOVQ         R11, DX
	JMP          ploop

pdone:
	VPMOVZXWD    X10, Y6
	VPADDD       Y6, Y12, Y12
	VEXTRACTI128 $1, Y10, X6
	VPMOVZXWD    X6, Y6
	VPADDD       Y6, Y13, Y13
	VPMOVZXWD    X11, Y6
	VPADDD       Y6, Y14, Y14
	VEXTRACTI128 $1, Y11, X6
	VPMOVZXWD    X6, Y6
	VPADDD       Y6, Y15, Y15

	// acc32 register r-order after the unpacks:
	// Y12=r0-7 Y13=r16-23 Y14=r8-15 Y15=r24-31
	LEAQ    (DI)(R13*4), AX
	VMOVDQU (AX), Y6
	VPADDD  Y6, Y12, Y12
	VMOVDQU Y12, (AX)
	VMOVDQU 32(AX), Y6
	VPADDD  Y6, Y14, Y14
	VMOVDQU Y14, 32(AX)
	VMOVDQU 64(AX), Y6
	VPADDD  Y6, Y13, Y13
	VMOVDQU Y13, 64(AX)
	VMOVDQU 96(AX), Y6
	VPADDD  Y6, Y15, Y15
	VMOVDQU Y15, 96(AX)

	ADDQ $32, R13
	JMP  prchunk

pexit:
	VZEROUPPER
	RET
