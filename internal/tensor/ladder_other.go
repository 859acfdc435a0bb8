//go:build !amd64

package tensor

// ladder4 is the Go loop: the assembly body is amd64 only.
func ladder4(dst []uint8, src []float32, bias, sign float32, th *[4]float32) (uint64, bool) {
	return ladder4Go(dst, src, bias, sign, th)
}
