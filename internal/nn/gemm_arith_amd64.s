//go:build !purego

#include "textflag.h"

// AVX2 kernels for the closed-form ("arith") forward GEMM tier: see
// arith.go for the strip-form math and the saturation/overflow gates
// that make every instruction below exact, and gemm_arith_amd64.go for
// the calling contracts. The strip kernels process the operand tile 32
// rows at a time in 16-bit SIMD lanes, widening into int32 accumulators
// on a cadence the caller derives from the op's worst-case strip sum, so
// the packed arithmetic can never wrap and the result is bit-identical
// to the scalar reference. loadTileAVX2, at the end, is the operand-tile
// load every forward row shares.

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
	JLT  done              // no 32-row chunk left (the caller pads nR)

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

// func gemmArithPair4AVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad, stride int64)
//
// gemmArithPairAVX2 for four coefficient streams at once: stream s
// starts at cwp + s*stride and accumulates into the row acc + s*nR. Per
// k-pair the two columns are loaded and interleaved once and each strip
// mask applied once; the four streams then share the masked pairs.
//   DI = acc  SI = x column cursor  BX = stream 0's cwp cursor
//   R8 = stride  R14 = 3*stride  R9 = xm base  R10 = xm end
//   R11 = cad  R12 = nR  R13 = rbase  CX = pair counter
//   R15 = xm cursor  DX = lane budget  AX = scratch
//   Y0,Y1 = masked pairs  Y2,Y3 = interleaved pairs  Y4 = xm bcast
//   Y5 = cw bcast  Y6,Y7 = madd results / widening
//   Y8..Y15 = uint16 sums, (Y8,Y9) stream 0 ... (Y14,Y15) stream 3
TEXT ·gemmArithPair4AVX2(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), DI
	MOVQ xm+24(FP), R9
	MOVQ nR+32(FP), R12
	MOVQ nT+48(FP), R10
	LEAQ (R9)(R10*2), R10  // xm end
	MOVQ cad+56(FP), R11
	MOVQ stride+64(FP), R8
	LEAQ (R8)(R8*2), R14

	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	XORQ  R13, R13         // rbase

qchunk:
	MOVQ R12, AX
	SUBQ R13, AX
	CMPQ AX, $32
	JLT  qexit

	MOVQ xt+8(FP), SI
	ADDQ R13, SI
	MOVQ cwp+16(FP), BX
	MOVQ nKp+40(FP), CX
	MOVQ R11, DX

qloop:
	TESTQ CX, CX
	JEQ   qflush

	VMOVDQU    (SI), Y0        // column 2p
	VMOVDQU    (SI)(R12*1), Y1 // column 2p+1
	VPUNPCKLBW Y1, Y0, Y2      // (x0,x1) byte pairs, rows 0-7 | 16-23
	VPUNPCKHBW Y1, Y0, Y3      // rows 8-15 | 24-31
	MOVQ       R9, R15

qtloop:
	VPBROADCASTW (R15), Y4     // strip mask in both bytes
	VPAND        Y2, Y4, Y0
	VPAND        Y3, Y4, Y1

	VPBROADCASTW (BX), Y5      // stream 0's (cw(w0), cw(w1)) byte pair
	VPMADDUBSW   Y5, Y0, Y6
	VPMADDUBSW   Y5, Y1, Y7
	VPADDW       Y6, Y8, Y8
	VPADDW       Y7, Y9, Y9

	VPBROADCASTW (BX)(R8*1), Y5
	VPMADDUBSW   Y5, Y0, Y6
	VPMADDUBSW   Y5, Y1, Y7
	VPADDW       Y6, Y10, Y10
	VPADDW       Y7, Y11, Y11

	VPBROADCASTW (BX)(R8*2), Y5
	VPMADDUBSW   Y5, Y0, Y6
	VPMADDUBSW   Y5, Y1, Y7
	VPADDW       Y6, Y12, Y12
	VPADDW       Y7, Y13, Y13

	VPBROADCASTW (BX)(R14*1), Y5
	VPMADDUBSW   Y5, Y0, Y6
	VPMADDUBSW   Y5, Y1, Y7
	VPADDW       Y6, Y14, Y14
	VPADDW       Y7, Y15, Y15

	ADDQ $2, R15
	ADDQ $2, BX
	CMPQ R15, R10
	JNE  qtloop

	LEAQ (SI)(R12*2), SI       // advance two columns
	DECQ CX
	DECQ DX                    // widen when the uint16 lane budget is spent
	JNZ  qloop

qflush:
	// Widen each stream's sums into its int32 row. Register r-order
	// after the unpacks: low lanes r0-7 (first sum) and r8-15 (second),
	// high lanes r16-23 and r24-31.
	LEAQ         (DI)(R13*4), AX
	VPMOVZXWD    X8, Y6
	VPADDD       (AX), Y6, Y6
	VMOVDQU      Y6, (AX)
	VPMOVZXWD    X9, Y7
	VPADDD       32(AX), Y7, Y7
	VMOVDQU      Y7, 32(AX)
	VEXTRACTI128 $1, Y8, X6
	VPMOVZXWD    X6, Y6
	VPADDD       64(AX), Y6, Y6
	VMOVDQU      Y6, 64(AX)
	VEXTRACTI128 $1, Y9, X7
	VPMOVZXWD    X7, Y7
	VPADDD       96(AX), Y7, Y7
	VMOVDQU      Y7, 96(AX)

	LEAQ         (AX)(R12*4), AX
	VPMOVZXWD    X10, Y6
	VPADDD       (AX), Y6, Y6
	VMOVDQU      Y6, (AX)
	VPMOVZXWD    X11, Y7
	VPADDD       32(AX), Y7, Y7
	VMOVDQU      Y7, 32(AX)
	VEXTRACTI128 $1, Y10, X6
	VPMOVZXWD    X6, Y6
	VPADDD       64(AX), Y6, Y6
	VMOVDQU      Y6, 64(AX)
	VEXTRACTI128 $1, Y11, X7
	VPMOVZXWD    X7, Y7
	VPADDD       96(AX), Y7, Y7
	VMOVDQU      Y7, 96(AX)

	LEAQ         (AX)(R12*4), AX
	VPMOVZXWD    X12, Y6
	VPADDD       (AX), Y6, Y6
	VMOVDQU      Y6, (AX)
	VPMOVZXWD    X13, Y7
	VPADDD       32(AX), Y7, Y7
	VMOVDQU      Y7, 32(AX)
	VEXTRACTI128 $1, Y12, X6
	VPMOVZXWD    X6, Y6
	VPADDD       64(AX), Y6, Y6
	VMOVDQU      Y6, 64(AX)
	VEXTRACTI128 $1, Y13, X7
	VPMOVZXWD    X7, Y7
	VPADDD       96(AX), Y7, Y7
	VMOVDQU      Y7, 96(AX)

	LEAQ         (AX)(R12*4), AX
	VPMOVZXWD    X14, Y6
	VPADDD       (AX), Y6, Y6
	VMOVDQU      Y6, (AX)
	VPMOVZXWD    X15, Y7
	VPADDD       32(AX), Y7, Y7
	VMOVDQU      Y7, 32(AX)
	VEXTRACTI128 $1, Y14, X6
	VPMOVZXWD    X6, Y6
	VPADDD       64(AX), Y6, Y6
	VMOVDQU      Y6, 64(AX)
	VEXTRACTI128 $1, Y15, X7
	VPMOVZXWD    X7, Y7
	VPADDD       96(AX), Y7, Y7
	VMOVDQU      Y7, 96(AX)

	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	MOVQ  R11, DX
	TESTQ CX, CX
	JNE   qloop                // k-pairs left: same chunk

	ADDQ $32, R13
	JMP  qchunk

qexit:
	VZEROUPPER
	RET

// func loadTileAVX2(xt *uint8, sumX *int64, src *uint8, rows, nR, ld, nK int64)
//
// loadTile's SIMD pass over the tile rows [0, nR&^31): per 32-row chunk
// it copies the nK column runs src + i*rows into xt + i*ld and adds the
// levels into two registers of uint16 row sums (at most nK*255 <=
// fwdKTile*255, which fits), then widens them into the chunk's sumX.
//   DI = xt cursor  SI = src cursor  DX = sumX  R8 = rows  R9 = nR
//   R10 = nK  R11 = rbase  R12 = ld  CX = column counter  AX = scratch
//   Y0 = column run  Y1,Y2 = its levels as words  Y3,Y4 = widening
//   Y8 = row sums r0-15  Y9 = r16-31
TEXT ·loadTileAVX2(SB), NOSPLIT, $0-56
	MOVQ sumX+8(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ nR+32(FP), R9
	MOVQ ld+40(FP), R12
	MOVQ nK+48(FP), R10
	XORQ R11, R11

lchunk:
	MOVQ R9, AX
	SUBQ R11, AX
	CMPQ AX, $32
	JLT  lexit

	MOVQ  src+16(FP), SI
	ADDQ  R11, SI
	MOVQ  xt+0(FP), DI
	ADDQ  R11, DI
	MOVQ  R10, CX
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9

lcol:
	VMOVDQU   (SI), Y0
	VMOVDQU   Y0, (DI)
	VPMOVZXBW (SI), Y1
	VPMOVZXBW 16(SI), Y2
	VPADDW    Y1, Y8, Y8
	VPADDW    Y2, Y9, Y9
	ADDQ      R8, SI
	ADDQ      R12, DI
	DECQ      CX
	JNZ       lcol

	// Widen: four words at a time into four int64 lanes.
	LEAQ         (DX)(R11*8), AX
	VPMOVZXWQ    X8, Y3
	VPADDQ       (AX), Y3, Y3
	VMOVDQU      Y3, (AX)
	VPSRLDQ      $8, X8, X4
	VPMOVZXWQ    X4, Y4
	VPADDQ       32(AX), Y4, Y4
	VMOVDQU      Y4, 32(AX)
	VEXTRACTI128 $1, Y8, X8
	VPMOVZXWQ    X8, Y3
	VPADDQ       64(AX), Y3, Y3
	VMOVDQU      Y3, 64(AX)
	VPSRLDQ      $8, X8, X4
	VPMOVZXWQ    X4, Y4
	VPADDQ       96(AX), Y4, Y4
	VMOVDQU      Y4, 96(AX)
	VPMOVZXWQ    X9, Y3
	VPADDQ       128(AX), Y3, Y3
	VMOVDQU      Y3, 128(AX)
	VPSRLDQ      $8, X9, X4
	VPMOVZXWQ    X4, Y4
	VPADDQ       160(AX), Y4, Y4
	VMOVDQU      Y4, 160(AX)
	VEXTRACTI128 $1, Y9, X9
	VPMOVZXWQ    X9, Y3
	VPADDQ       192(AX), Y3, Y3
	VMOVDQU      Y3, 192(AX)
	VPSRLDQ      $8, X9, X4
	VPMOVZXWQ    X4, Y4
	VPADDQ       224(AX), Y4, Y4
	VMOVDQU      Y4, 224(AX)

	ADDQ $32, R11
	JMP  lchunk

lexit:
	VZEROUPPER
	RET
