package tensor

// The threshold count of a 2-bit activation ladder: the epilogue of a
// staged layer in internal/nn, FINN's MVTU threshold compare. Each output
// row is one channel with its own bias, sign and four thresholds, so a
// row is the unit of the kernel.

// Ladder4 writes to dst[i] the number of thresholds th[k] at or below
// sign·(src[i]+bias), a level in 0..4, and returns the set of levels
// written, bit l for level l. ok is false, and dst and present are
// undefined, when some src[i]+bias is not finite. dst must be at least as
// long as src.
func Ladder4(dst []uint8, src []float32, bias, sign float32, th [4]float32) (present uint64, ok bool) {
	return ladder4(dst[:len(src)], src, bias, sign, &th)
}

// ladder4Go is the threshold count as a Go loop: the body off amd64 and
// on CPUs without AVX2, the tail the assembly leaves, and the reference it
// is tested against. The four compares are branch-free.
func ladder4Go(dst []uint8, src []float32, bias, sign float32, th *[4]float32) (present uint64, ok bool) {
	t0, t1, t2, t3 := th[0], th[1], th[2], th[3]
	dst = dst[:len(src)]
	for i, v := range src {
		a := v + bias
		if a-a != 0 { // ±Inf or NaN
			return 0, false
		}
		a *= sign
		lv := b2u(a >= t0) + b2u(a >= t1) + b2u(a >= t2) + b2u(a >= t3)
		dst[i] = lv
		present |= 1 << lv
	}
	return present, true
}

// b2u is 1 for true and 0 for false. internal/nn keeps its own copy for
// ladders of other widths, which stay in that package.
func b2u(b bool) uint8 {
	var u uint8
	if b {
		u = 1
	}
	return u
}
