//go:build !amd64

package tensor

// bitDot4 is the Go loop: the assembly body is amd64 only.
func bitDot4(out []float32, stride, npos int, wb, patch []uint64, pw *planeWeights, ep *blockEpilogue) {
	bitDot4Go(out, stride, npos, wb, patch, pw, ep)
}
