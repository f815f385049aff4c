//go:build !purego

#include "textflag.h"

// func addBlocksAVX2(dst, src *float32, n int64)
TEXT ·addBlocksAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add8:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     add8
	VZEROUPPER
	RET

// func nonFiniteAVX2(x *float32, n int64) bool
TEXT ·nonFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7f800000, AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0         // the exponent field's mask, every lane
	VPXOR        Y1, Y1, Y1     // lanes that met a NaN or an Inf

exp8:
	VPAND    (SI), Y0, Y2
	VPCMPEQD Y0, Y2, Y2         // all ones where the exponent is all ones
	VPOR     Y2, Y1, Y1
	ADDQ     $32, SI
	SUBQ     $8, CX
	JNZ      exp8
	VPTEST   Y1, Y1
	SETNE    ret+16(FP)
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
