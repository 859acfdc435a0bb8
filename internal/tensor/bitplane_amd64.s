#include "textflag.h"

// Popcounts of the nibbles 0–15, one byte each, for VPSHUFB.
DATA nibblePop<>+0(SB)/8, $0x0302020102010100
DATA nibblePop<>+8(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $16

// PLANE counts plane b of the field word at R8 against the block's masks
// (Y2) and signs (Y3): the word at off(R8) is broadcast, XORed with the
// signs and ANDed with the masks, and each byte's bits are counted with the
// nibble table. VPMADDUBSW weighs the byte counts by ω_b, the 32 bytes at
// woff(R11), and sums adjacent pairs into int16 lanes, added to Y1.
#define PLANE(off, woff) \
	VPBROADCASTQ off(R8), Y4 \
	VPXOR        Y3, Y4, Y4 \
	VPAND        Y2, Y4, Y4 \
	VPSRLW       $4, Y4, Y5 \
	VPAND        Y14, Y4, Y4 \
	VPAND        Y14, Y5, Y5 \
	VPSHUFB      Y4, Y15, Y4 \
	VPSHUFB      Y5, Y15, Y5 \
	VPADDB       Y5, Y4, Y4 \
	VPMADDUBSW   woff(R11), Y4, Y4 \
	VPADDW       Y4, Y1, Y1

// func bitDot4AVX2(out []float32, stride, npos int, wb, patch []uint64, bcast *[8][32]int8, planes, flush int, ep *blockEpilogue)
//
// bitDot4Go on 256-bit lanes: lane i of a register holds filter i of the
// block. Per filter word the masks and signs are loaded once and each of
// the planes is counted and weighed (PLANE, unrolled, the planes past the
// count skipped), so the weighted combine happens in registers. Every
// flush words VPMADDWD widens the int16 lanes into the int32 sum. After
// the last word the two int32 halves of each filter's qword are added,
// and the four sums less ep.corr are converted (VCVTDQ2PS rounds as
// Go's float32(int32) does), multiplied by ep.scale and stored into the
// first ep.n of the rows out, out+stride, out+2·stride, out+3·stride.
TEXT ·bitDot4AVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ stride+24(FP), BX
	MOVQ npos+32(FP), CX
	MOVQ wb_base+40(FP), SI
	MOVQ wb_len+48(FP), DX
	MOVQ patch_base+64(FP), R8
	MOVQ bcast+88(FP), R11
	MOVQ planes+96(FP), R12
	MOVQ ep+112(FP), AX
	SHRQ $3, DX             // filter words
	SHLQ $2, BX             // row stride in bytes

	// Every vector instruction is VEX-encoded (VMOVQ, not MOVQ): a
	// legacy SSE instruction after a 256-bit write costs a state
	// transition, measured at about 200 ns a call.
	VMOVDQU        (AX), X12   // ep.corr
	VMOVUPS        16(AX), X11 // ep.scale
	VBROADCASTI128 nibblePop<>(SB), Y15
	MOVQ           $0x0f0f0f0f0f0f0f0f, AX
	VMOVQ          AX, X14
	VPBROADCASTQ   X14, Y14 // low-nibble mask
	MOVQ           $0x0001000100010001, AX
	VMOVQ          AX, X13
	VPBROADCASTQ   X13, Y13 // int16 ones, for VPMADDWD
	LEAQ           (BX)(BX*2), AX // three rows

pos:
	VPXOR Y0, Y0, Y0 // int32 sums, two per filter
	MOVQ  SI, R9
	MOVQ  DX, R10    // words left

chunk:
	MOVQ  flush+104(FP), R13
	CMPQ  R13, R10
	JLE   count
	MOVQ  R10, R13

count:
	SUBQ  R13, R10
	VPXOR Y1, Y1, Y1 // int16 sums

word:
	VMOVDQU (R9), Y2   // masks m
	VMOVDQU 32(R9), Y3 // signs n
	PLANE(0, 0)
	CMPQ    R12, $2
	JLT     next
	PLANE(8, 32)
	CMPQ    R12, $3
	JLT     next
	PLANE(16, 64)
	CMPQ    R12, $4
	JLT     next
	PLANE(24, 96)
	CMPQ    R12, $5
	JLT     next
	PLANE(32, 128)
	CMPQ    R12, $6
	JLT     next
	PLANE(40, 160)
	CMPQ    R12, $7
	JLT     next
	PLANE(48, 192)
	CMPQ    R12, $8
	JLT     next
	PLANE(56, 224)

next:
	ADDQ $64, R9
	LEAQ (R8)(R12*8), R8
	DECQ R13
	JNZ  word

	VPMADDWD Y13, Y1, Y1
	VPADDD   Y1, Y0, Y0
	TESTQ    R10, R10
	JNZ      chunk

	VPSRLQ     $32, Y0, Y1
	VPADDD     Y1, Y0, Y0    // each qword's low int32 is its filter's sum
	VPSHUFD    $0x08, Y0, Y0
	VPERMQ     $0x08, Y0, Y0
	VPSUBD     X12, X0, X0
	VCVTDQ2PS  X0, X0
	VMULPS     X11, X0, X0
	VMOVSS     X0, (DI)
	MOVQ       ep+112(FP), R13
	MOVQ       32(R13), R13  // ep.n
	CMPQ       R13, $2
	JLT        stored
	VEXTRACTPS $1, X0, (DI)(BX*1)
	CMPQ       R13, $3
	JLT        stored
	VEXTRACTPS $2, X0, (DI)(BX*2)
	CMPQ       R13, $4
	JLT        stored
	VEXTRACTPS $3, X0, (DI)(AX*1)

stored:
	ADDQ $4, DI
	DECQ CX
	JNZ  pos

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
