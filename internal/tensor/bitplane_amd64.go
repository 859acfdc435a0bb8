package tensor

// hasAVX2 is whether the CPU and the operating system support AVX2: CPUID
// leaf 7 reports AVX2, leaf 1 reports AVX and OSXSAVE, and XCR0 shows the
// OS saving the XMM and YMM registers.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// bitDot4 is bitDot4Go, in assembly where the CPU has AVX2. The assembly
// reads npos fields of len(pw.w)·len(wb)/8 words and writes ep.n output
// rows without bounds checks, so their lengths are checked here.
func bitDot4(out []float32, stride, npos int, wb, patch []uint64, pw *planeWeights, ep *blockEpilogue) {
	if !hasAVX2 {
		bitDot4Go(out, stride, npos, wb, patch, pw, ep)
		return
	}
	p := len(pw.w)
	if p < 1 || p > len(pw.bcast) || ep.n < 1 || ep.n > 4 || npos < 1 ||
		len(patch) < npos*p*(len(wb)/8) || len(out) < (ep.n-1)*stride+npos {
		panic("tensor: bitDot4 arguments out of range")
	}
	bitDot4AVX2(out, stride, npos, wb, patch, &pw.bcast, p, pw.flush, ep)
}

// bitDot4AVX2 is bitDot4 for 1 to 8 planes of weights bcast, widening its
// int16 lanes every flush filter words.
//
//go:noescape
func bitDot4AVX2(out []float32, stride, npos int, wb, patch []uint64, bcast *[8][32]int8, planes, flush int, ep *blockEpilogue)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
