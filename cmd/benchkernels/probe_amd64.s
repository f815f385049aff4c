//go:build !purego

#include "textflag.h"

// func gatherGroupsAVX2(sum *float32, table *float32, idx *int32, woff *int32, n int64)
//
//   DI = sum  SI = table  R9 = woff cursor  CX = group countdown
//   R15 = row base  Y0..Y3 = accumulators  Y4..Y7 = gathered values
//   Y9..Y12 = the 32 indices  Y8,Y13,Y14,Y15 = gather masks
TEXT ·gatherGroupsAVX2(SB), NOSPLIT, $0-40
	MOVQ sum+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ woff+24(FP), R9
	MOVQ n+32(FP), CX
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	VMOVDQU (DX), Y9
	VMOVDQU 32(DX), Y10
	VMOVDQU 64(DX), Y11
	VMOVDQU 96(DX), Y12

group:
	MOVLQSX    (R9), AX
	LEAQ       (SI)(AX*4), R15
	VPXOR      Y4, Y4, Y4
	VPXOR      Y5, Y5, Y5
	VPXOR      Y6, Y6, Y6
	VPXOR      Y7, Y7, Y7
	VPCMPEQD   Y8, Y8, Y8
	VPCMPEQD   Y13, Y13, Y13
	VPCMPEQD   Y14, Y14, Y14
	VPCMPEQD   Y15, Y15, Y15
	VGATHERDPS Y8, (R15)(Y9*4), Y4
	VGATHERDPS Y13, (R15)(Y10*4), Y5
	VGATHERDPS Y14, (R15)(Y11*4), Y6
	VGATHERDPS Y15, (R15)(Y12*4), Y7
	VADDPS     Y4, Y0, Y0
	VADDPS     Y5, Y1, Y1
	VADDPS     Y6, Y2, Y2
	VADDPS     Y7, Y3, Y3
	ADDQ       $4, R9
	DECQ       CX
	JNZ        group

	VADDPS  Y1, Y0, Y0
	VADDPS  Y3, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET
