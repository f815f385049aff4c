//go:build !purego

#include "textflag.h"

// The passes between the GEMMs (glue_amd64.go has the Go-side
// contracts). Every float operation is one separately rounded VSUBPD,
// VMULPD, VADDPD or VCVTPD2PS in the order the Go expression
// associates, and no FMA: each lane is the Go loop's element or
// channel, bit for bit.

// func maxPool2x2AVX2(dst *float32, am *int32, src *float32, tl *int32, groups, blocks int64, base, step, w int32)
//
// Eight outputs per group. Their window corners come from tl (plus the
// block's base), in output order; VPGATHERDQ fetches each window's top
// pair (a, b) and bottom pair (c, d) as one quadword, with the corners
// ordered [0 1 4 5 | 2 3 6 7] so that VSHUFPS splits the pairs back
// into output order. Then best = a, and b, c, d in turn replace it
// where VCMPPS GT_OQ holds: false on a tie and on a NaN either side,
// which is `v > best`. am (0: Infer) receives the winner's index.
//
//   DI = dst  R8 = am  SI = src  DX = tl  R9 = groups  R10 = blocks
//   BX = tl cursor  CX = group countdown
//   Y15 = base  Y14 = step  Y13 = w  Y12 = 1  Y11 = w+1
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-60
	MOVQ         dst+0(FP), DI
	MOVQ         am+8(FP), R8
	MOVQ         src+16(FP), SI
	MOVQ         tl+24(FP), DX
	MOVQ         groups+32(FP), R9
	MOVQ         blocks+40(FP), R10
	VBROADCASTSS base+48(FP), Y15
	VBROADCASTSS step+52(FP), Y14
	VBROADCASTSS w+56(FP), Y13
	VPCMPEQD     Y12, Y12, Y12
	VPSRLD       $31, Y12, Y12
	VPADDD       Y12, Y13, Y11

poolblock:
	MOVQ DX, BX
	MOVQ R9, CX

poolgroup:
	VPADDD       (BX), Y15, Y0             // a's index, output order
	VPERMQ       $0xD8, Y0, Y1             // [0 1 4 5 | 2 3 6 7]
	VEXTRACTI128 $1, Y1, X2
	VPADDD       X13, X1, X3               // the bottom row
	VPADDD       X13, X2, X4
	VPCMPEQD     Y5, Y5, Y5
	VPCMPEQD     Y6, Y6, Y6
	VPCMPEQD     Y7, Y7, Y7
	VPCMPEQD     Y8, Y8, Y8
	VPXOR        Y9, Y9, Y9
	VPGATHERDQ   Y5, (SI)(X1*4), Y9        // top pairs of outputs 0 1 4 5
	VPXOR        Y10, Y10, Y10
	VPGATHERDQ   Y6, (SI)(X2*4), Y10       // 2 3 6 7
	VPXOR        Y1, Y1, Y1
	VPGATHERDQ   Y7, (SI)(X3*4), Y1        // bottom pairs
	VPXOR        Y2, Y2, Y2
	VPGATHERDQ   Y8, (SI)(X4*4), Y2
	VSHUFPS      $0x88, Y10, Y9, Y5        // a
	VSHUFPS      $0xDD, Y10, Y9, Y6        // b
	VSHUFPS      $0x88, Y2, Y1, Y7         // c
	VSHUFPS      $0xDD, Y2, Y1, Y8         // d
	VCMPPS       $0x1E, Y5, Y6, Y3         // b > best
	VBLENDVPS    Y3, Y6, Y5, Y5
	VPADDD       Y12, Y0, Y4
	VBLENDVPS    Y3, Y4, Y0, Y9
	VCMPPS       $0x1E, Y5, Y7, Y3         // c > best
	VBLENDVPS    Y3, Y7, Y5, Y5
	VPADDD       Y13, Y0, Y4
	VBLENDVPS    Y3, Y4, Y9, Y9
	VCMPPS       $0x1E, Y5, Y8, Y3         // d > best
	VBLENDVPS    Y3, Y8, Y5, Y5
	VPADDD       Y11, Y0, Y4
	VBLENDVPS    Y3, Y4, Y9, Y9
	VMOVUPS      Y5, (DI)
	ADDQ         $32, DI
	ADDQ         $32, BX
	TESTQ        R8, R8
	JZ           poolnext
	VMOVDQU      Y9, (R8)
	ADDQ         $32, R8

poolnext:
	DECQ   CX
	JNZ    poolgroup
	VPADDD Y14, Y15, Y15
	DECQ   R10
	JNZ    poolblock
	VZEROUPPER
	RET

// func reluAVX2(dst *float32, keep *uint8, src *float32, n int64)
//
// VCMPPS LT_OQ against zero is `v < 0`: false for -0 and for a NaN of
// either sign. dst is v with its bits cleared where that holds; keep
// (0: Infer) gets 1 where it does not, 0 where it does.
TEXT ·reluAVX2(SB), NOSPLIT, $0-32
	MOVQ     dst+0(FP), DI
	MOVQ     keep+8(FP), R8
	MOVQ     src+16(FP), SI
	MOVQ     n+24(FP), CX
	VXORPS   Y15, Y15, Y15
	VPCMPEQB X14, X14, X14
	VPABSB   X14, X14                      // 0x01 bytes

relu8:
	VMOVUPS (SI), Y0
	VCMPPS  $0x11, Y15, Y0, Y1             // v < 0
	VANDNPS Y0, Y1, Y2
	VMOVUPS Y2, (DI)
	TESTQ   R8, R8
	JZ      relunext
	VEXTRACTF128 $1, Y1, X3
	VPACKSSDW    X3, X1, X3
	VPACKSSWB    X3, X3, X3
	VPADDB       X14, X3, X3               // -1 -> 0, 0 -> 1
	VMOVQ        X3, (R8)
	ADDQ         $8, R8

relunext:
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  relu8
	VZEROUPPER
	RET

// func reluMaskAVX2(dst, src *float32, keep *uint8, n int64)
//
// dst = src's bits AND -keep, per element.
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   keep+16(FP), R8
	MOVQ   n+24(FP), CX
	VPXOR  Y15, Y15, Y15

mask8:
	VPMOVZXBD (R8), Y0
	VPSUBD    Y0, Y15, Y0                  // 0 or all ones
	VPAND     (SI), Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	ADDQ      $8, R8
	SUBQ      $8, CX
	JNZ       mask8
	VZEROUPPER
	RET

// func bnNormalizeAVX2(out, xhat, x *float32, n, hw4, stride int64, k *[4]float64)
//
// One channel: hw4 elements (a positive multiple of 4) of each of n
// images, stride floats apart. k = mean, inv, g, bt; per lane
// xh = (float64(v) - mean) * inv, xhat = float32(xh) unless xhat is 0,
// out = float32(g*xh + bt).
TEXT ·bnNormalizeAVX2(SB), NOSPLIT, $0-56
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), R9
	MOVQ         hw4+32(FP), R10
	MOVQ         stride+40(FP), R11
	MOVQ         k+48(FP), AX
	SHLQ         $2, R11
	VBROADCASTSD 0(AX), Y15
	VBROADCASTSD 8(AX), Y14
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD 24(AX), Y12

normimg:
	MOVQ R10, CX
	XORQ BX, BX

norm4:
	VCVTPS2PD  (SI)(BX*1), Y0
	VSUBPD     Y15, Y0, Y0                 // float64(v) - mean
	VMULPD     Y14, Y0, Y0                 // xh
	TESTQ      R8, R8
	JZ         normout
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (R8)(BX*1)

normout:
	VMULPD     Y0, Y13, Y0                 // g*xh
	VADDPD     Y12, Y0, Y0                 // + bt
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(BX*1)
	ADDQ       $16, BX
	SUBQ       $4, CX
	JNZ        norm4
	ADDQ       R11, SI
	ADDQ       R11, DI
	TESTQ      R8, R8
	JZ         normnext
	ADDQ       R11, R8

normnext:
	DECQ R9
	JNZ  normimg
	VZEROUPPER
	RET

// func bnInputGradAVX2(dx, dy, xhat *float32, n, hw4, stride int64, k *[4]float64)
//
// The layout of bnNormalizeAVX2; k = cnt, sumDy, sumDyXhat, coef and
// dx = float32(coef * ((cnt*dy - sumDy) - xhat*sumDyXhat)).
TEXT ·bnInputGradAVX2(SB), NOSPLIT, $0-56
	MOVQ         dx+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         n+24(FP), R9
	MOVQ         hw4+32(FP), R10
	MOVQ         stride+40(FP), R11
	MOVQ         k+48(FP), AX
	SHLQ         $2, R11
	VBROADCASTSD 0(AX), Y15
	VBROADCASTSD 8(AX), Y14
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD 24(AX), Y12

gradimg:
	MOVQ R10, CX
	XORQ BX, BX

grad4:
	VCVTPS2PD  (SI)(BX*1), Y0
	VMULPD     Y0, Y15, Y0                 // cnt*dy
	VSUBPD     Y14, Y0, Y0                 // - sumDy
	VCVTPS2PD  (R8)(BX*1), Y1
	VMULPD     Y13, Y1, Y1                 // xhat*sumDyXhat
	VSUBPD     Y1, Y0, Y0
	VMULPD     Y0, Y12, Y0                 // coef * (...)
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(BX*1)
	ADDQ       $16, BX
	SUBQ       $4, CX
	JNZ        grad4
	ADDQ       R11, SI
	ADDQ       R11, DI
	ADDQ       R11, R8
	DECQ       R9
	JNZ        gradimg
	VZEROUPPER
	RET

// The per-channel reductions run four channels at once, lane l being
// channel ch+l with its own float64 chain in the Go loop's order:
// images ascending, then positions. With hw a multiple of 4, each step
// loads four positions of each channel and transposes them into four
// position vectors (COLS4), added in position order; with hw = 1 the
// four channels' elements of an image are adjacent, one vector.
//
//   SI (R8) = channel ch's plane of x or dy (xhat) in the current image
//   R9 = images left  R10 = hw  R11 = stride bytes  R12 = 4*hw bytes
//   R13 = 12*hw bytes  CX = positions left in the plane

// COLS4 loads positions j..j+3 of the four channels at base into
// x0..x3, transposes them, and leaves each position's four channels in
// y0..y3 as float64 lanes (X8-X11 are scratch).
#define COLS4(base, x0, x1, x2, x3, y0, y1, y2, y3) \
	VMOVUPS   (base), x0; \
	VMOVUPS   (base)(R12*1), x1; \
	VMOVUPS   (base)(R12*2), x2; \
	VMOVUPS   (base)(R13*1), x3; \
	VUNPCKLPS x1, x0, X8; \
	VUNPCKHPS x1, x0, X9; \
	VUNPCKLPS x3, x2, X10; \
	VUNPCKHPS x3, x2, X11; \
	VMOVLHPS  X10, X8, x0; \
	VMOVHLPS  X8, X10, x1; \
	VMOVLHPS  X11, X9, x2; \
	VMOVHLPS  X9, X11, x3; \
	VCVTPS2PD x0, y0; \
	VCVTPS2PD x1, y1; \
	VCVTPS2PD x2, y2; \
	VCVTPS2PD x3, y3

#define REDUCE_SETUP \
	SHLQ $2, R11; \
	MOVQ R10, R12; \
	SHLQ $2, R12; \
	LEAQ (R12)(R12*2), R13

// func bnSumsAVX2(sums *[4]float64, x *float32, n, hw, stride int64)
TEXT ·bnSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ   sums+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), R9
	MOVQ   hw+24(FP), R10
	MOVQ   stride+32(FP), R11
	REDUCE_SETUP
	VXORPD Y0, Y0, Y0
	CMPQ   R10, $1
	JEQ    sum1

sumimg:
	MOVQ SI, AX
	MOVQ R10, CX

sum4:
	COLS4(AX, X4, X5, X6, X7, Y4, Y5, Y6, Y7)
	VADDPD Y4, Y0, Y0                      // s += float64(v), per lane
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y0, Y0
	ADDQ   $16, AX
	SUBQ   $4, CX
	JNZ    sum4
	ADDQ   R11, SI
	DECQ   R9
	JNZ    sumimg
	JMP    sumdone

sum1:
	VCVTPS2PD (SI), Y4
	VADDPD    Y4, Y0, Y0
	ADDQ      R11, SI
	DECQ      R9
	JNZ       sum1

sumdone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func bnSqDevAVX2(sq *[4]float64, x *float32, mean *float64, n, hw, stride int64)
//
// s += float64(d*d), d = float64(v) - mean, mean per lane.
#define SQDEV(v) \
	VSUBPD Y15, v, v; \
	VMULPD v, v, v; \
	VADDPD v, Y0, Y0

TEXT ·bnSqDevAVX2(SB), NOSPLIT, $0-48
	MOVQ    sq+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    mean+16(FP), AX
	MOVQ    n+24(FP), R9
	MOVQ    hw+32(FP), R10
	MOVQ    stride+40(FP), R11
	REDUCE_SETUP
	VMOVUPD (AX), Y15
	VXORPD  Y0, Y0, Y0
	CMPQ    R10, $1
	JEQ     sq1

sqimg:
	MOVQ SI, AX
	MOVQ R10, CX

sq4:
	COLS4(AX, X4, X5, X6, X7, Y4, Y5, Y6, Y7)
	SQDEV(Y4)
	SQDEV(Y5)
	SQDEV(Y6)
	SQDEV(Y7)
	ADDQ $16, AX
	SUBQ $4, CX
	JNZ  sq4
	ADDQ R11, SI
	DECQ R9
	JNZ  sqimg
	JMP  sqdone

sq1:
	VCVTPS2PD (SI), Y4
	SQDEV(Y4)
	ADDQ      R11, SI
	DECQ      R9
	JNZ       sq1

sqdone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func bnGradSumsAVX2(sumDy, sumDyXhat *[4]float64, dy, xhat *float32, n, hw, stride int64)
//
// sumDy += g and sumDyXhat += float64(g * float64(xh)) per lane,
// g = float64(dy): two independent chains.
#define GRADSUMS(g, xh) \
	VADDPD g, Y0, Y0; \
	VMULPD xh, g, xh; \
	VADDPD xh, Y1, Y1

TEXT ·bnGradSumsAVX2(SB), NOSPLIT, $0-56
	MOVQ   sumDy+0(FP), DI
	MOVQ   sumDyXhat+8(FP), DX
	MOVQ   dy+16(FP), SI
	MOVQ   xhat+24(FP), R8
	MOVQ   n+32(FP), R9
	MOVQ   hw+40(FP), R10
	MOVQ   stride+48(FP), R11
	REDUCE_SETUP
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ   R10, $1
	JEQ    gs1

gsimg:
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ R10, CX

gs4:
	COLS4(AX, X4, X5, X6, X7, Y4, Y5, Y6, Y7)
	COLS4(BX, X2, X3, X12, X13, Y2, Y3, Y12, Y13)
	GRADSUMS(Y4, Y2)
	GRADSUMS(Y5, Y3)
	GRADSUMS(Y6, Y12)
	GRADSUMS(Y7, Y13)
	ADDQ $16, AX
	ADDQ $16, BX
	SUBQ $4, CX
	JNZ  gs4
	ADDQ R11, SI
	ADDQ R11, R8
	DECQ R9
	JNZ  gsimg
	JMP  gsdone

gs1:
	VCVTPS2PD (SI), Y4
	VCVTPS2PD (R8), Y2
	GRADSUMS(Y4, Y2)
	ADDQ      R11, SI
	ADDQ      R11, R8
	DECQ      R9
	JNZ       gs1

gsdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DX)
	VZEROUPPER
	RET
