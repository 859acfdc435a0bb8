package tensor

// ladder4 is ladder4Go, in assembly where the CPU has AVX2: the assembly
// counts whole blocks of 8 elements, and the Go loop the tail of at most
// 7. dst is as long as src.
func ladder4(dst []uint8, src []float32, bias, sign float32, th *[4]float32) (uint64, bool) {
	n := len(src) &^ 7
	if !hasAVX2 || n == 0 {
		return ladder4Go(dst, src, bias, sign, th)
	}
	present, ok := ladder4AVX2(dst[:n], src[:n], bias, sign, th)
	if !ok {
		return 0, false
	}
	tail, ok := ladder4Go(dst[n:], src[n:], bias, sign, th)
	return present | tail, ok
}

// ladder4AVX2 counts len(src)/8 blocks of 8 elements into dst, which is
// as long as src; it reports ok once per call, from the OR of every a−a.
//
//go:noescape
func ladder4AVX2(dst []uint8, src []float32, bias, sign float32, th *[4]float32) (present uint64, ok bool)
