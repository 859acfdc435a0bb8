package tensor

import "fmt"

// Integer fast-path kernels: int8×int8 products with exact integer
// accumulation, on the same worker pool as the float kernels in gemm.go.
// Quantized layers in internal/nn route their inference products here so
// the int8 representation produced by internal/quant is computed on
// directly instead of being dequantized to float first; a single float
// rescale at the output recovers real units. Integer accumulation is exact
// and associative, so results are bit-identical across any worker count
// or tile schedule by construction — a stronger guarantee than the float
// kernels' order-preservation argument.
//
// There is one kernel per operand form, both convolutions over a batch: a
// dense layer is a 1×1 convolution over one pixel. ConvInt8BatchInto
// (im2col.go) takes int8 codes and runs on one micro-kernel, mulInt8Lanes:
// two weight rows share one int64 coefficient (w0 + w1<<32), so each
// multiply-add advances two int32 output lanes at once.
// ConvBitplaneBatchInto (bitplane.go) takes ternary weights and any codes,
// split into bit planes, and counts bits instead.

// Int8Matrix is a dense row-major int8 matrix, the storage format of
// quantized weights and streamed activation patches on the integer path.
type Int8Matrix struct {
	Rows, Cols int
	Data       []int8
}

// NewInt8Matrix returns a zero-filled rows×cols int8 matrix.
func NewInt8Matrix(rows, cols int) *Int8Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative int8 matrix dimension %dx%d", rows, cols))
	}
	return &Int8Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
}

// kcPanel is the k-strip of the cache blocking: one panel of kcPanel
// patch rows is streamed against the lane accumulators of a tile while the
// weight strips it pairs with stay resident. Integer accumulation makes the
// tiling invisible in the results, so it is a pure tuning knob.
const kcPanel = 256

// maxLaneK bounds the inner dimension of the paired-lane kernel. A lane is
// exact while its sum fits int32: k·128·128 < 2³¹, that is k < 2¹⁷. Past
// that a low-lane overflow would carry into the high lane.
const maxLaneK = 1 << 17

// laneZeros stands in for the weight rows past the end of W, so a partial
// block of lane pairs runs the same straight-line loop as a full one.
var laneZeros [kcPanel]int8

// mulInt8Lanes accumulates acc += W[:, p0:p1]·P for the m×k row-major
// weights wd and a panel P of p1-p0 ≤ kcPanel rows of n codes, row p at
// panel[(p-p0)·n:][:n]. Lane pair q packs weight rows 2q (low 32 bits) and
// 2q+1 (high 32 bits; zero when 2q+1 == m) into one int64 coefficient;
// acc holds one row of n int64 lanes per pair.
//
// Four lane pairs (eight weight rows) advance per sweep of a panel row, and
// a sweep is skipped only when all eight codes are zero. Every lane adds
// exactly its row's products, so unpackLanes recovers the int32 sums
// bit-exactly as long as k < maxLaneK.
func mulInt8Lanes(acc []int64, wd []int8, m, k, p0, p1 int, panel []int8, n int) {
	kp := p1 - p0
	pairs := (m + 1) / 2
	for q := 0; q < pairs; q += 4 {
		var w [8][]int8
		for i := range w {
			w[i] = laneZeros[:kp]
			if r := 2*q + i; r < m {
				w[i] = wd[r*k+p0 : r*k+p1]
			}
		}
		var c [4][]int64
		for i := range c {
			c[i] = acc[q*n : (q+1)*n] // missing pairs alias pair q with zero coefficients
			if q+i < pairs {
				c[i] = acc[(q+i)*n : (q+i+1)*n]
			}
		}
		w0, w1, w2, w3 := w[0][:kp], w[1][:kp], w[2][:kp], w[3][:kp]
		w4, w5, w6, w7 := w[4][:kp], w[5][:kp], w[6][:kp], w[7][:kp]
		for pp := range kp {
			a0 := int64(w0[pp]) + int64(w1[pp])<<32
			a1 := int64(w2[pp]) + int64(w3[pp])<<32
			a2 := int64(w4[pp]) + int64(w5[pp])<<32
			a3 := int64(w6[pp]) + int64(w7[pp])<<32
			if a0|a1|a2|a3 != 0 {
				laneAxpy4(c[0], c[1], c[2], c[3], panel[pp*n:pp*n+n], a0, a1, a2, a3)
			}
		}
	}
}

// laneAxpy4 is the paired-lane axpy: c_i += a_i·b for four lane rows. The
// //go:noinline keeps the row pointers out of mulInt8Lanes's registers,
// like the float axpy kernels in gemm.go.
//
//go:noinline
func laneAxpy4(c0, c1, c2, c3 []int64, b []int8, a0, a1, a2, a3 int64) {
	c0 = c0[:len(b)]
	c1 = c1[:len(b)]
	c2 = c2[:len(b)]
	c3 = c3[:len(b)]
	for j, bv := range b {
		v := int64(bv)
		c0[j] += a0 * v
		c1[j] += a1 * v
		c2[j] += a2 * v
		c3[j] += a3 * v
	}
}

// unpackLanes splits a paired-lane accumulator into its low and high int32
// sums. The low lane is the truncation; subtracting it (sign-extended)
// removes its borrow from the high lane.
func unpackLanes(x int64) (lo, hi int32) {
	lo = int32(x)
	return lo, int32((x - int64(lo)) >> 32)
}
