#include "textflag.h"

// func ladder4AVX2(dst []uint8, src []float32, bias, sign float32, th *[4]float32) (present uint64, ok bool)
//
// ladder4Go on 8 floats a step: a = v + bias (VADDPS), a−a is ORed into a
// mask that stays zero while every a is finite, a *= sign (VMULPS), and
// each VCMPPS GE_OQ against a broadcast threshold gives −1 per lane where
// a ≥ t; the level is minus the sum of the four masks. The eight levels
// are packed to bytes and stored, and 1<<level (VPSLLVD) is ORed into the
// level-presence lanes, folded into one word at the end. Every vector
// instruction is VEX-encoded, as in bitDot4AVX2: a legacy SSE instruction
// after a 256-bit write costs a state transition per call.
TEXT ·ladder4AVX2(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ th+56(FP), AX

	VBROADCASTSS bias+48(FP), Y8
	VBROADCASTSS sign+52(FP), Y9
	VBROADCASTSS 0(AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VPXOR        Y14, Y14, Y14 // zero
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $31, Y15, Y15 // 1 in every dword
	VPXOR        Y6, Y6, Y6    // OR of every a−a
	VPXOR        Y7, Y7, Y7    // level-presence bits
	SHRQ         $3, CX
	JZ           fold

block:
	VADDPS  (SI), Y8, Y0
	VSUBPS  Y0, Y0, Y1
	VORPS   Y1, Y6, Y6
	VMULPS  Y9, Y0, Y0
	VCMPPS  $0x1d, Y10, Y0, Y1 // a ≥ t₀
	VCMPPS  $0x1d, Y11, Y0, Y2
	VCMPPS  $0x1d, Y12, Y0, Y3
	VCMPPS  $0x1d, Y13, Y0, Y4
	VPADDD  Y2, Y1, Y1
	VPADDD  Y4, Y3, Y3
	VPADDD  Y3, Y1, Y1
	VPSUBD  Y1, Y14, Y1        // level, one dword per element
	VPSLLVD Y1, Y15, Y2
	VPOR    Y2, Y7, Y7

	VEXTRACTI128 $1, Y1, X2
	VPACKSSDW    X2, X1, X1 // eight words, in element order
	VPACKUSWB    X1, X1, X1 // eight bytes
	VMOVQ        X1, (DI)

	ADDQ $32, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  block

fold:
	VEXTRACTI128 $1, Y7, X2
	VPOR         X2, X7, X7
	VPSHUFD      $0x4e, X7, X2
	VPOR         X2, X7, X7
	VPSHUFD      $0xb1, X7, X2
	VPOR         X2, X7, X7
	VMOVD        X7, AX
	MOVQ         AX, present+64(FP)
	VPTEST       Y6, Y6
	SETEQ        ok+72(FP)
	VZEROUPPER
	RET
