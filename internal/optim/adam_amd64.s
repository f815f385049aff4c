//go:build !purego

#include "textflag.h"

// The AVX2 Adam update, four float64 lanes per iteration: lane l is
// element i+l, and each lane runs adamTail's expression (optim.go)
// operation for operation, every one separately rounded — VMULPD and
// VADDPD for the moments, VDIVPD by the bias corrections, VSQRTPD, the
// eps add, the lr product and VDIVPD for the step, then VCVTPD2PSY
// (round to nearest, Go's float32 conversion) and VSUBPS. There is no
// FMA anywhere, so the lanes equal the Go loop bit for bit.

// func adamAVX2(val, grad *float32, m, v *float64, c *adamConsts, n int64)
//
//   DI = val  SI = grad  R8 = m  R9 = v  CX = element countdown
//   Y8 = beta1  Y9 = 1-beta1  Y10 = beta2  Y11 = 1-beta2
//   Y12 = c1  Y13 = c2  Y14 = lr  Y15 = eps
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ val+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ c+32(FP), AX
	MOVQ n+40(FP), CX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

adam4:
	VCVTPS2PD  (SI), Y0         // g = float64(grad[i])
	VMULPD     (R8), Y8, Y1     // beta1*m
	VMULPD     Y0, Y9, Y2       // (1-beta1)*g
	VADDPD     Y2, Y1, Y1       // m
	VMOVUPD    Y1, (R8)
	VMULPD     (R9), Y10, Y3    // beta2*v
	VMULPD     Y0, Y11, Y4      // (1-beta2)*g
	VMULPD     Y0, Y4, Y4       // ((1-beta2)*g)*g
	VADDPD     Y4, Y3, Y3       // v
	VMOVUPD    Y3, (R9)
	VDIVPD     Y12, Y1, Y1      // mhat = m/c1
	VDIVPD     Y13, Y3, Y3      // vhat = v/c2
	VSQRTPD    Y3, Y3
	VADDPD     Y15, Y3, Y3      // sqrt(vhat) + eps
	VMULPD     Y1, Y14, Y1      // lr*mhat
	VDIVPD     Y3, Y1, Y1       // lr*mhat / (sqrt(vhat) + eps)
	VCVTPD2PSY Y1, X1
	VMOVUPS    (DI), X2
	VSUBPS     X1, X2, X2       // val[i] - float32(step)
	VMOVUPS    X2, (DI)
	ADDQ       $16, DI
	ADDQ       $16, SI
	ADDQ       $32, R8
	ADDQ       $32, R9
	SUBQ       $4, CX
	JNZ        adam4
	VZEROUPPER
	RET
