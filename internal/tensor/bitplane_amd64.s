#include "textflag.h"

// Popcounts of the nibbles 0–15, one byte each, for VPSHUFB.
DATA nibblePop<>+0(SB)/8, $0x0302020102010100
DATA nibblePop<>+8(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $16

// func bitDot4AVX2(sums []uint64, wb, patch []uint64)
//
// bitDot4Go on 256-bit lanes: lane i of a register holds filter i of the
// block. Per filter word, a₀ and a₁ are broadcast, XORed with the four
// signs and ANDed with the four masks; each byte's bits are counted with
// the nibble table and VPSADBW sums the bytes into one qword per filter,
// added to the plane's accumulator.
TEXT ·bitDot4AVX2(SB), NOSPLIT, $0-72
	MOVQ sums_base+0(FP), DI
	MOVQ sums_len+8(FP), CX
	MOVQ wb_base+24(FP), SI
	MOVQ wb_len+32(FP), DX
	MOVQ patch_base+48(FP), R8
	SHRQ $2, CX // positions
	JZ   done
	SHRQ $3, DX // filter words

	// Every vector instruction is VEX-encoded (VMOVQ, not MOVQ): a
	// legacy SSE instruction after a 256-bit write costs a state
	// transition, measured at about 200 ns a call, where a whole call on
	// one position of fc0's 4-word filters takes about 30 ns.
	VBROADCASTI128 nibblePop<>(SB), Y15
	MOVQ           $0x0f0f0f0f0f0f0f0f, AX
	VMOVQ          AX, X14
	VPBROADCASTQ   X14, Y14 // low-nibble mask
	VPXOR          Y13, Y13, Y13

pos:
	VPXOR Y0, Y0, Y0 // p₀ of the four filters
	VPXOR Y1, Y1, Y1 // p₁
	MOVQ  SI, R9
	MOVQ  DX, R10
	TESTQ R10, R10
	JZ    store // a zero-word filter counts nothing

word:
	VMOVDQU      (R9), Y2   // masks m
	VMOVDQU      32(R9), Y3 // signs n
	VPBROADCASTQ (R8), Y4   // a₀
	VPBROADCASTQ 8(R8), Y5  // a₁
	VPXOR        Y3, Y4, Y4
	VPAND        Y2, Y4, Y4
	VPXOR        Y3, Y5, Y5
	VPAND        Y2, Y5, Y5

	VPSRLW  $4, Y4, Y6
	VPAND   Y14, Y4, Y4
	VPAND   Y14, Y6, Y6
	VPSHUFB Y4, Y15, Y4
	VPSHUFB Y6, Y15, Y6
	VPADDB  Y6, Y4, Y4
	VPSADBW Y13, Y4, Y4
	VPADDQ  Y4, Y0, Y0

	VPSRLW  $4, Y5, Y7
	VPAND   Y14, Y5, Y5
	VPAND   Y14, Y7, Y7
	VPSHUFB Y5, Y15, Y5
	VPSHUFB Y7, Y15, Y7
	VPADDB  Y7, Y5, Y5
	VPSADBW Y13, Y5, Y5
	VPADDQ  Y5, Y1, Y1

	ADDQ $64, R9
	ADDQ $16, R8
	DECQ R10
	JNZ  word

store:
	VPSLLQ  $32, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pos

done:
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
