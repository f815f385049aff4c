//go:build !purego

#include "textflag.h"

// AVX2 kernels for the tiered backward GEMM: see kernels_backward.go
// for the dispatch and the bit-exactness argument, and
// gemm_bwd_amd64.go for the calling contracts. The invariant every
// sweep kernel shares: SIMD lanes map to independent destinations (output
// channels for the dW kernels, rows for the dX kernels) while the
// summation direction (r for dW, oc for dX) stays a sequential scalar
// loop, so every destination accumulates its terms in exactly the
// reference order. All float arithmetic is separately rounded VMULPS /
// VADDPS / VSUBPS — never FMA — matching the Go expressions bit for
// bit.
//
// Two rules keep the sweeps at the host's issue rate instead of on a
// latency chain (asm_deps_test.go enforces the first). VGATHERDPS
// merges into its destination, so it reads it: every gather gets its
// own destination and mask register, and the destination is zeroed
// (VPXOR d, d, d — a dependency-breaking idiom) right before it, or the
// gather waits for whatever last wrote that register. And what does
// not depend on oc is loaded once per 32-row chunk of the dX gather
// kernel, not once per output channel: the chunk's four index vectors
// live in Y9..Y12 across the oc loop.

// func bwdGatherDWAVX2(out0, out1 *float32, x0, x1 *uint8, dyR *float32, woff0, woff1 *int32, gwPad *float32, zx float32, rows, outC int64)
//
//   DI = out0  SI = out1  R8 = x0 cursor  R9 = x1 cursor
//   R10 = dyR cursor  R11 = dyR row stride (bytes)  R12 = gwPad
//   CX = row countdown  AX, BX = gather bases (gwPad + level)
//   Y0,Y1 = accumulators  Y2,Y3 = row offsets (the gather indices)
//   Y4,Y5 = gather masks  Y6 = zx  Y7 = dy lanes  Y8,Y9 = gathered values
//   (zeroed before each gather: the previous row's VMULPS wrote them)
TEXT ·bwdGatherDWAVX2(SB), NOSPLIT, $0-88
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), SI
	MOVQ x0+16(FP), R8
	MOVQ x1+24(FP), R9
	MOVQ dyR+32(FP), R10
	MOVQ woff0+40(FP), AX
	VMOVDQU (AX), Y2
	MOVQ woff1+48(FP), AX
	VMOVDQU (AX), Y3
	MOVQ gwPad+56(FP), R12
	VBROADCASTSS zx+64(FP), Y6
	MOVQ rows+72(FP), CX
	MOVQ outC+80(FP), R11
	SHLQ $2, R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

gdwrow:
	VMOVUPS    (R10), Y7
	MOVBLZX    (R8), AX
	MOVBLZX    (R9), BX
	LEAQ       (R12)(AX*4), AX      // &gwPad[x0[r]]: entry woff + x is woff floats on
	LEAQ       (R12)(BX*4), BX
	VPCMPEQD   Y4, Y4, Y4           // gather consumes the mask: reset to all-ones
	VPCMPEQD   Y5, Y5, Y5
	VPXOR      Y8, Y8, Y8
	VPXOR      Y9, Y9, Y9
	VGATHERDPS Y4, (AX)(Y2*4), Y8
	VGATHERDPS Y5, (BX)(Y3*4), Y9
	VSUBPS     Y6, Y8, Y8
	VSUBPS     Y6, Y9, Y9
	VMULPS     Y7, Y8, Y8
	VMULPS     Y7, Y9, Y9
	VADDPS     Y8, Y0, Y0
	VADDPS     Y9, Y1, Y1
	INCQ       R8
	INCQ       R9
	ADDQ       R11, R10
	DECQ       CX
	JNZ        gdwrow

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (SI)
	VZEROUPPER
	RET

// func bwdDWTableAVX2(tab *float32, woff *int32, gwPad *float32, zx float32, n int64)
//
// One level table: tab[x*8+l] = gwPad[woff[l]+x] - zx for x in [0, n),
// n a positive multiple of 8, eight levels at a time as an 8x8
// transpose of eight padded gradient rows. The subtract is done on the
// rows, before the transpose: the same rounded VSUBPS on the same entry.
//
//   DI = table cursor (8 levels of 8 lanes per block)  BX = x  CX = n
//   R8..R15 = the eight channels' gradient rows (gwPad + woff[l])
//   Y0..Y7 = rows l at levels x..x+7, then the transpose's registers
//   Y15 = zx
TEXT ·bwdDWTableAVX2(SB), NOSPLIT, $0-40
	MOVQ         tab+0(FP), DI
	MOVQ         woff+8(FP), SI
	MOVQ         gwPad+16(FP), AX
	VBROADCASTSS zx+24(FP), Y15
	MOVQ         n+32(FP), CX
	MOVLQSX      0(SI), R8
	LEAQ         (AX)(R8*4), R8
	MOVLQSX      4(SI), R9
	LEAQ         (AX)(R9*4), R9
	MOVLQSX      8(SI), R10
	LEAQ         (AX)(R10*4), R10
	MOVLQSX      12(SI), R11
	LEAQ         (AX)(R11*4), R11
	MOVLQSX      16(SI), R12
	LEAQ         (AX)(R12*4), R12
	MOVLQSX      20(SI), R13
	LEAQ         (AX)(R13*4), R13
	MOVLQSX      24(SI), R14
	LEAQ         (AX)(R14*4), R14
	MOVLQSX      28(SI), R15
	LEAQ         (AX)(R15*4), R15
	XORQ         BX, BX

tblblk:
	VMOVUPS (R8)(BX*4), Y0
	VMOVUPS (R9)(BX*4), Y1
	VMOVUPS (R10)(BX*4), Y2
	VMOVUPS (R11)(BX*4), Y3
	VMOVUPS (R12)(BX*4), Y4
	VMOVUPS (R13)(BX*4), Y5
	VMOVUPS (R14)(BX*4), Y6
	VMOVUPS (R15)(BX*4), Y7
	VSUBPS  Y15, Y0, Y0
	VSUBPS  Y15, Y1, Y1
	VSUBPS  Y15, Y2, Y2
	VSUBPS  Y15, Y3, Y3
	VSUBPS  Y15, Y4, Y4
	VSUBPS  Y15, Y5, Y5
	VSUBPS  Y15, Y6, Y6
	VSUBPS  Y15, Y7, Y7

	// Pairs of rows interleaved: Y8 = r0[0] r1[0] r0[1] r1[1] | r0[4] ..
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y0

	// Quads: Y1 = r0..r3 at level x | at x+4, Y2 at x+1 | x+5, ...
	VSHUFPS $0x44, Y10, Y8, Y1
	VSHUFPS $0xEE, Y10, Y8, Y2
	VSHUFPS $0x44, Y11, Y9, Y3
	VSHUFPS $0xEE, Y11, Y9, Y4
	VSHUFPS $0x44, Y14, Y12, Y5
	VSHUFPS $0xEE, Y14, Y12, Y6
	VSHUFPS $0x44, Y0, Y13, Y7
	VSHUFPS $0xEE, Y0, Y13, Y8

	// Halves joined: level x+j, all eight lanes.
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x20, Y8, Y4, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y0
	VPERM2F128 $0x31, Y8, Y4, Y1
	VMOVUPS    Y9, (DI)
	VMOVUPS    Y10, 32(DI)
	VMOVUPS    Y11, 64(DI)
	VMOVUPS    Y12, 96(DI)
	VMOVUPS    Y13, 128(DI)
	VMOVUPS    Y14, 160(DI)
	VMOVUPS    Y0, 192(DI)
	VMOVUPS    Y1, 224(DI)

	ADDQ $256, DI
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  tblblk

	VZEROUPPER
	RET

// func bwdTableDWAVX2(out0, out1, out2, out3 *float32, x0, x1, x2, x3 *uint8, dyR, t0, t1, t2, t3 *float32, rows, outC int64)
//
// bwdGatherDWAVX2 on four columns' level tables: a row's term is one
// 32-byte load at tc + 32*xc[r], no gather and no subtract.
//
//   R8..R11 = x0..x3 + rows, indexed by CX = r - rows (counts up to 0)
//   R12..R15 = t0..t3  DI = dyR cursor  SI = dyR row stride (bytes)
//   AX, BX, DX = table row offsets (32*level)
//   Y0..Y3 = accumulators  Y4 = dy lanes  Y5..Y8 = products
TEXT ·bwdTableDWAVX2(SB), NOSPLIT, $0-120
	MOVQ x0+32(FP), R8
	MOVQ x1+40(FP), R9
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ dyR+64(FP), DI
	MOVQ t0+72(FP), R12
	MOVQ t1+80(FP), R13
	MOVQ t2+88(FP), R14
	MOVQ t3+96(FP), R15
	MOVQ rows+104(FP), CX
	MOVQ outC+112(FP), SI
	SHLQ $2, SI
	ADDQ CX, R8
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	NEGQ CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

tdwrow:
	VMOVUPS (DI), Y4
	MOVBLZX (R8)(CX*1), AX
	MOVBLZX (R9)(CX*1), BX
	MOVBLZX (R10)(CX*1), DX
	SHLQ    $5, AX
	SHLQ    $5, BX
	SHLQ    $5, DX
	VMULPS  (R12)(AX*1), Y4, Y5 // dy * (gwPad[woff+x] - zx), as a table row
	VMULPS  (R13)(BX*1), Y4, Y6
	VMULPS  (R14)(DX*1), Y4, Y7
	MOVBLZX (R11)(CX*1), AX
	SHLQ    $5, AX
	VMULPS  (R15)(AX*1), Y4, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ    SI, DI
	INCQ    CX
	JNZ     tdwrow

	MOVQ    out0+0(FP), AX
	VMOVUPS Y0, (AX)
	MOVQ    out1+8(FP), AX
	VMOVUPS Y1, (AX)
	MOVQ    out2+16(FP), AX
	VMOVUPS Y2, (AX)
	MOVQ    out3+24(FP), AX
	VMOVUPS Y3, (AX)
	VZEROUPPER
	RET

// func bwdUniformDWAVX2(out0, out1, out2, out3 *float32, x0, x1, x2, x3 *uint8, dyR, lev *float32, rows, outC int64)
//
// bwdTableDWAVX2 on one level table whose lanes are alike, kept as one
// float per level: a row's term is the level's float broadcast from
// lev, one load, then a register multiply (no table row load, no shift).
//
//   R8..R11 = x0..x3 + rows, indexed by CX = r - rows (counts up to 0)
//   R12 = lev  DI = dyR cursor  SI = dyR row stride (bytes)
//   AX, BX, DX, R13 = levels
//   Y0..Y3 = accumulators  Y4 = dy lanes  Y5..Y8 = terms, then products
TEXT ·bwdUniformDWAVX2(SB), NOSPLIT, $0-96
	MOVQ x0+32(FP), R8
	MOVQ x1+40(FP), R9
	MOVQ x2+48(FP), R10
	MOVQ x3+56(FP), R11
	MOVQ dyR+64(FP), DI
	MOVQ lev+72(FP), R12
	MOVQ rows+80(FP), CX
	MOVQ outC+88(FP), SI
	SHLQ $2, SI
	ADDQ CX, R8
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	NEGQ CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

udwrow:
	VMOVUPS      (DI), Y4
	MOVBLZX      (R8)(CX*1), AX
	MOVBLZX      (R9)(CX*1), BX
	MOVBLZX      (R10)(CX*1), DX
	MOVBLZX      (R11)(CX*1), R13
	VBROADCASTSS (R12)(AX*4), Y5 // fl(fl(fl(A*x)+B) - zx), every lane
	VBROADCASTSS (R12)(BX*4), Y6
	VBROADCASTSS (R12)(DX*4), Y7
	VBROADCASTSS (R12)(R13*4), Y8
	VMULPS       Y5, Y4, Y5      // dy * term, as bwdTableDWAVX2 rounds it
	VMULPS       Y6, Y4, Y6
	VMULPS       Y7, Y4, Y7
	VMULPS       Y8, Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         SI, DI
	INCQ         CX
	JNZ          udwrow

	MOVQ    out0+0(FP), AX
	VMOVUPS Y0, (AX)
	MOVQ    out1+8(FP), AX
	VMOVUPS Y1, (AX)
	MOVQ    out2+16(FP), AX
	VMOVUPS Y2, (AX)
	MOVQ    out3+24(FP), AX
	VMOVUPS Y3, (AX)
	VZEROUPPER
	RET

// func bwdConstDXAVX2(dx0, dx1 *float32, gsT *float32, v0, v1 *float32, rows32, rows, outC, k int64)
//
// A float GEMM column pair: per 32-row chunk and oc, the chunk's four
// gradient vectors are loaded once and multiplied by both columns'
// broadcast operands.
//
//   R8 = gsT  R13 = rows32  R14 = outC  R15 = operand stride (k, bytes)
//   DX = gsT row stride (bytes)  BX = rb  CX = oc countdown
//   AX = gsT cursor  R11, R12 = v0, v1 cursors  SI = output column
//   Y0..Y3 = column 0's accumulators (4 x 8 rows)  Y4..Y7 = column 1's
//   Y8..Y11 = gsT[oc][rb..rb+31]  Y12, Y13 = v0[oc], v1[oc]
//   Y14, Y15 = products
TEXT ·bwdConstDXAVX2(SB), NOSPLIT, $0-72
	MOVQ gsT+16(FP), R8
	MOVQ rows32+40(FP), R13
	MOVQ rows+48(FP), DX
	SHLQ $2, DX
	MOVQ outC+56(FP), R14
	MOVQ k+64(FP), R15
	SHLQ $2, R15

	XORQ BX, BX            // rb = 0

cdxblk:
	CMPQ BX, R13
	JGE  cdxdone

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	LEAQ (R8)(BX*4), AX    // &gsT[0*rows+rb]
	MOVQ v0+24(FP), R11
	MOVQ v1+32(FP), R12
	MOVQ R14, CX

cdxoc:
	TESTQ CX, CX
	JZ    cdxstore

	VMOVUPS      (AX), Y8
	VMOVUPS      32(AX), Y9
	VMOVUPS      64(AX), Y10
	VMOVUPS      96(AX), Y11
	VBROADCASTSS (R11), Y12
	VBROADCASTSS (R12), Y13

	VMULPS Y8, Y12, Y14    // v0 * g, rounded, then added
	VMULPS Y9, Y12, Y15
	VADDPS Y14, Y0, Y0
	VADDPS Y15, Y1, Y1
	VMULPS Y10, Y12, Y14
	VMULPS Y11, Y12, Y15
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3
	VMULPS Y8, Y13, Y14
	VMULPS Y9, Y13, Y15
	VADDPS Y14, Y4, Y4
	VADDPS Y15, Y5, Y5
	VMULPS Y10, Y13, Y14
	VMULPS Y11, Y13, Y15
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7

	ADDQ DX, AX
	ADDQ R15, R11
	ADDQ R15, R12
	DECQ CX
	JMP  cdxoc

cdxstore:
	MOVQ    dx0+0(FP), SI
	VMOVUPS Y0, (SI)(BX*4)
	VMOVUPS Y1, 32(SI)(BX*4)
	VMOVUPS Y2, 64(SI)(BX*4)
	VMOVUPS Y3, 96(SI)(BX*4)
	MOVQ    dx1+8(FP), SI
	VMOVUPS Y4, (SI)(BX*4)
	VMOVUPS Y5, 32(SI)(BX*4)
	VMOVUPS Y6, 64(SI)(BX*4)
	VMOVUPS Y7, 96(SI)(BX*4)
	ADDQ    $32, BX
	JMP     cdxblk

cdxdone:
	VZEROUPPER
	RET

// func bwdGatherDXAVX2(dxrow *float32, xcol *uint8, gsT *float32, woffCol *int32, gxPad *float32, zw float32, rows32, rows, outC int64)
//
//   DI = dxrow  SI = xcol  R8 = gsT  R9 = woffCol  R10 = gxPad
//   R12 = rows32  R13 = rows  R14 = outC
//   BX = rb  CX = oc  AX = gsT row cursor
//   R15 = gradient-row base (gxPad + woffCol[oc])
//   Y0..Y3 = accumulators  Y4..Y7 = gathered values
//   Y9..Y12 = xcol[rb..rb+31] widened to the gather indices, once per chunk
//   Y8,Y13,Y14,Y15 = gather masks; a gather leaves its mask dead, so
//   Y8 then carries zw, broadcast again per channel (sixteen registers,
//   seventeen roles)
TEXT ·bwdGatherDXAVX2(SB), NOSPLIT, $0-72
	MOVQ dxrow+0(FP), DI
	MOVQ xcol+8(FP), SI
	MOVQ gsT+16(FP), R8
	MOVQ woffCol+24(FP), R9
	MOVQ gxPad+32(FP), R10
	MOVQ rows32+48(FP), R12
	MOVQ rows+56(FP), R13
	MOVQ outC+64(FP), R14

	XORQ BX, BX

gdxblk:
	CMPQ BX, R12
	JGE  gdxdone

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

	VPMOVZXBD (SI)(BX*1), Y9
	VPMOVZXBD 8(SI)(BX*1), Y10
	VPMOVZXBD 16(SI)(BX*1), Y11
	VPMOVZXBD 24(SI)(BX*1), Y12

	XORQ CX, CX

gdxoc:
	CMPQ CX, R14
	JGE  gdxstore

	MOVLQSX (R9)(CX*4), AX
	LEAQ    (R10)(AX*4), R15 // gradient row for this channel's weight level
	MOVQ    CX, AX
	IMULQ   R13, AX
	ADDQ    BX, AX
	LEAQ    (R8)(AX*4), AX

	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	VPXOR        Y7, Y7, Y7
	VPCMPEQD     Y8, Y8, Y8
	VPCMPEQD     Y13, Y13, Y13
	VPCMPEQD     Y14, Y14, Y14
	VPCMPEQD     Y15, Y15, Y15
	VGATHERDPS   Y8, (R15)(Y9*4), Y4
	VGATHERDPS   Y13, (R15)(Y10*4), Y5
	VGATHERDPS   Y14, (R15)(Y11*4), Y6
	VGATHERDPS   Y15, (R15)(Y12*4), Y7
	VBROADCASTSS zw+40(FP), Y8
	VSUBPS       Y8, Y4, Y4
	VSUBPS       Y8, Y5, Y5
	VSUBPS       Y8, Y6, Y6
	VSUBPS       Y8, Y7, Y7
	VMULPS       (AX), Y4, Y4
	VMULPS       32(AX), Y5, Y5
	VMULPS       64(AX), Y6, Y6
	VMULPS       96(AX), Y7, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3

	INCQ CX
	JMP  gdxoc

gdxstore:
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, 64(DI)(BX*4)
	VMOVUPS Y3, 96(DI)(BX*4)
	ADDQ    $32, BX
	JMP     gdxblk

gdxdone:
	VZEROUPPER
	RET
