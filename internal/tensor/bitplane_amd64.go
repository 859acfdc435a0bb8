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
// reads len(sums)/4 patches of 2·len(wb)/8 words without bounds checks,
// so their length is checked here.
func bitDot4(sums []uint64, wb, patch []uint64) {
	if !hasAVX2 {
		bitDot4Go(sums, wb, patch)
		return
	}
	if len(patch) < len(sums)/4*2*(len(wb)/8) {
		panic("tensor: bitDot4 patch shorter than its positions")
	}
	bitDot4AVX2(sums, wb, patch)
}

//go:noescape
func bitDot4AVX2(sums []uint64, wb, patch []uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
