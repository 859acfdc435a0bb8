//go:build !amd64

package tensor

// bitDot4 is the Go loop: the assembly body is amd64 only.
func bitDot4(sums []uint64, wb, patch []uint64) { bitDot4Go(sums, wb, patch) }
