//go:build !purego

#include "textflag.h"

// func quantizeBlocksAVX2(q *uint8, clip *bool, data *float32, n int64, scale float32, zero, qmax int32)
//
// See quant_amd64.go for the contract and the bit-identity argument.
//   DI = q  SI = clip (0: no flags)  DX = data  CX = countdown
//   Y15 = scale  X14 = zero point  X13 = qmax  Y12 = 0.5  Y11 = sign bit
//   Y10 = +limit  Y9 = -limit  X8 = 0  X7 = 0x01 bytes
TEXT ·quantizeBlocksAVX2(SB), NOSPLIT, $0-44
	MOVQ         q+0(FP), DI
	MOVQ         clip+8(FP), SI
	MOVQ         data+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS scale+32(FP), Y15
	MOVL         zero+36(FP), AX
	MOVQ         AX, X14
	VPBROADCASTD X14, X14
	MOVL         qmax+40(FP), AX
	MOVQ         AX, X13
	VPBROADCASTD X13, X13
	MOVQ         $0x3FE0000000000000, AX // 0.5
	MOVQ         AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ         $0x4170000000000000, AX // 2^24 = roundLimit
	MOVQ         AX, X10
	VPBROADCASTQ X10, Y10
	VXORPD       Y11, Y10, Y9
	VPXOR        X8, X8, X8
	VPCMPEQB     X7, X7, X7
	VPABSB       X7, X7

quant8:
	VMOVUPS      (DX), Y0
	VDIVPS       Y15, Y0, Y0             // v / scale, float32
	VCVTPS2PD    X0, Y1                  // lanes 0-3 as float64
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2                  // lanes 4-7
	VANDPD       Y11, Y1, Y3
	VANDPD       Y11, Y2, Y4
	VORPD        Y12, Y3, Y3             // copysign(0.5, x)
	VORPD        Y12, Y4, Y4
	VADDPD       Y3, Y1, Y1
	VADDPD       Y4, Y2, Y2
	VMAXPD       Y9, Y1, Y1              // NaN -> -limit (second source)
	VMAXPD       Y9, Y2, Y2
	VMINPD       Y10, Y1, Y1
	VMINPD       Y10, Y2, Y2
	VCVTTPD2DQY  Y1, X1
	VCVTTPD2DQY  Y2, X2
	VPADDD       X14, X1, X1             // unclamped level
	VPADDD       X14, X2, X2
	VPMAXSD      X8, X1, X3
	VPMAXSD      X8, X2, X4
	VPMINSD      X13, X3, X3             // clamped level
	VPMINSD      X13, X4, X4
	VPACKUSDW    X4, X3, X5
	VPACKUSWB    X5, X5, X5
	VMOVQ        X5, (DI)
	TESTQ        SI, SI
	JZ           quantnext
	VPCMPEQD     X1, X3, X3              // -1 where nothing was clamped
	VPCMPEQD     X2, X4, X4
	VPACKSSDW    X4, X3, X3
	VPACKSSWB    X3, X3, X3
	VPADDB       X7, X3, X3              // -1 -> 0 (false), 0 -> 1 (true)
	VMOVQ        X3, (SI)
	ADDQ         $8, SI

quantnext:
	ADDQ $8, DI
	ADDQ $32, DX
	SUBQ $8, CX
	JNZ  quant8
	VZEROUPPER
	RET
