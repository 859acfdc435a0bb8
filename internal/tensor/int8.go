package tensor

import "fmt"

// Integer fast-path kernels: int8×int8 products with exact integer
// accumulation, on the same worker pool as the float kernels in gemm.go.
// Quantized layers in internal/nn route their inference GEMMs here so the
// int8 representation produced by internal/quant is computed on directly
// instead of being dequantized to float first; a single float rescale at
// the output recovers real units. Integer accumulation is exact and
// associative, so results are bit-identical across any worker count or
// tile schedule by construction — a stronger guarantee than the float
// kernels' order-preservation argument.
//
// Wide products run on one micro-kernel, mulInt8Lanes: two weight rows
// share one int64 coefficient (w0 + w1<<32), so each multiply-add advances
// two int32 output lanes at once.

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

// Cache-blocking panel sizes. One B panel (kcPanel×ncPanel int8) is
// streamed against the lane accumulators of a worker's rows while the
// k-strips of A it pairs with stay resident. Integer accumulation makes
// the tiling invisible in the results, so these are pure tuning knobs.
const (
	kcPanel = 256 // rows of B per panel (k dimension)
	ncPanel = 512 // columns of B per panel (n dimension)
)

// maxLaneK bounds the inner dimension of the paired-lane kernel. A lane is
// exact while its sum fits int32: k·128·128 < 2³¹, that is k < 2¹⁷. Past
// that a low-lane overflow would carry into the high lane.
const maxLaneK = 1 << 17

// GemmInt8Into computes dst = A·B over int8 operands, overwriting dst (a
// row-major m×n int32 slice, typically borrowed via BorrowInt32). Rows of
// the output are split across the package worker pool exactly like the
// float GemmInto. Products wider than narrowN columns need k < maxLaneK.
func GemmInt8Into(dst []int32, a, b *Int8Matrix) error {
	m, k := a.Rows, a.Cols
	k2, n := b.Rows, b.Cols
	if k != k2 {
		return fmt.Errorf("tensor: GemmInt8 inner dimensions differ: %d vs %d", k, k2)
	}
	if len(a.Data) != m*k || len(b.Data) != k2*n {
		return fmt.Errorf("tensor: GemmInt8 operand storage does not match declared shape")
	}
	if len(dst) != m*n {
		return fmt.Errorf("tensor: GemmInt8Into dst length %d, want %d", len(dst), m*n)
	}
	ad, bd := a.Data, b.Data
	if n == 1 {
		// Matrix-vector product (the Dense inference shape): per-row dot
		// products beat width-1 axpy sweeps.
		parallelFor(m, k, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				arow := ad[i*k : (i+1)*k]
				var acc int32
				for p, av := range arow {
					acc += int32(av) * int32(bd[p])
				}
				dst[i] = acc
			}
		})
		return nil
	}
	if n <= narrowN {
		// Tall-skinny product (the micro-batched Dense shape, n = batch):
		// walk k in kcPanel strips so the active B panel (kcPanel×n int8)
		// stays L1-resident across every A row, each operand is streamed
		// from memory exactly once per batch, and the n-wide column sums
		// live in a stack register block instead of paying per-panel call
		// overhead on tiny row widths. Integer accumulation is exact, so
		// this path is bit-identical to the wide one.
		parallelFor(m, k*n, func(lo, hi int) {
			clear(dst[lo*n : hi*n])
			var acc [narrowN]int32
			for p0 := 0; p0 < k; p0 += kcPanel {
				p1 := min(p0+kcPanel, k)
				for i := lo; i < hi; i++ {
					arow := ad[i*k+p0 : i*k+p1]
					if n == 8 {
						gemmInt8Narrow8(dst[i*n:i*n+8], arow, bd[p0*8:p1*8])
						continue
					}
					s := acc[:n]
					copy(s, dst[i*n:(i+1)*n])
					// No zero-skip: on zero-heavy low-bit grids the skip
					// branch is data-dependent and mispredicts, costing
					// more than the n multiplies it saves at tiny widths.
					for pp, av := range arow {
						av32 := int32(av)
						brow := bd[(p0+pp)*n : (p0+pp)*n+n]
						for j, bv := range brow {
							s[j] += av32 * int32(bv)
						}
					}
					copy(dst[i*n:(i+1)*n], s)
				}
			}
		})
		return nil
	}
	if k >= maxLaneK {
		return fmt.Errorf("tensor: GemmInt8 inner dimension %d exceeds the paired-lane bound %d", k, maxLaneK-1)
	}
	// Wide product: workers own lane pairs (row pairs) and sweep
	// ncPanel-wide column blocks, accumulating int64 lanes over every
	// kcPanel strip before unpacking them into dst.
	parallelFor((m+1)/2, 2*k*n, func(lo, hi int) {
		nw := min(n, ncPanel)
		acc := BorrowInt64((hi - lo) * nw)
		defer ReleaseInt64(acc)
		for j0 := 0; j0 < n; j0 += ncPanel {
			w := min(ncPanel, n-j0)
			lanes := acc[:(hi-lo)*w]
			clear(lanes)
			for p0 := 0; p0 < k; p0 += kcPanel {
				mulInt8Lanes(lanes, ad, m, k, lo, hi, p0, min(p0+kcPanel, k), bd[p0*n+j0:], n, w)
			}
			for q := lo; q < hi; q++ {
				o := 2 * q
				for jj, x := range lanes[(q-lo)*w : (q-lo+1)*w] {
					l, h := unpackLanes(x)
					dst[o*n+j0+jj] = l
					if o+1 < m {
						dst[(o+1)*n+j0+jj] = h
					}
				}
			}
		}
	})
	return nil
}

// gemmInt8Narrow8 accumulates one output row strip of the n==8 narrow
// path: s += arow · bpanel, straight-line unrolled so the eight column
// sums live in registers and the inner loop carries one branch per weight
// element. bpanel holds B rows [p0,p1) at width 8; len(bpanel) == 8·len(arow).
func gemmInt8Narrow8(s []int32, arow []int8, bpanel []int8) {
	_ = s[7]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	s4, s5, s6, s7 := s[4], s[5], s[6], s[7]
	for pp, av := range arow {
		av32 := int32(av)
		b := bpanel[pp*8 : pp*8+8 : pp*8+8]
		s0 += av32 * int32(b[0])
		s1 += av32 * int32(b[1])
		s2 += av32 * int32(b[2])
		s3 += av32 * int32(b[3])
		s4 += av32 * int32(b[4])
		s5 += av32 * int32(b[5])
		s6 += av32 * int32(b[6])
		s7 += av32 * int32(b[7])
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	s[4], s[5], s[6], s[7] = s4, s5, s6, s7
}

// narrowN is the widest b operand served by the register-block small-n
// path of GemmInt8Into: n int32 accumulators must fit in registers/stack
// while each weight row streams past once.
const narrowN = 16

// laneZeros stands in for the weight rows past the end of A or of the
// caller's pair range, so a partial block of lane pairs runs the same
// straight-line loop as a full one.
var laneZeros [kcPanel]int8

// mulInt8Lanes accumulates acc += W[:, p0:p1]·B for the lane pairs
// [q0,q1) of the m×k row-major weights wd. Lane pair q packs weight rows 2q
// (low 32 bits) and 2q+1 (high 32 bits; zero when 2q+1 == m) into one
// int64 coefficient; acc holds one row of nw int64 lanes per pair, pair q
// at row q-q0. Row p of B is b[(p-p0)·ldb:][:nw], and p1-p0 ≤ kcPanel.
//
// Four lane pairs (eight weight rows) advance per sweep of a B row, and a
// sweep is skipped only when all eight codes are zero. Every lane adds
// exactly its row's products, so unpackLanes recovers the int32 sums
// bit-exactly as long as k < maxLaneK.
func mulInt8Lanes(acc []int64, wd []int8, m, k, q0, q1, p0, p1 int, b []int8, ldb, nw int) {
	kp := p1 - p0
	for q := q0; q < q1; q += 4 {
		var w [8][]int8
		for i := range w {
			w[i] = laneZeros[:kp]
			if r := 2*q + i; r < m && r < 2*q1 {
				w[i] = wd[r*k+p0 : r*k+p1]
			}
		}
		var c [4][]int64
		for i := range c {
			c[i] = acc[(q-q0)*nw : (q-q0+1)*nw] // missing pairs alias pair q with zero coefficients
			if q+i < q1 {
				c[i] = acc[(q+i-q0)*nw : (q+i-q0+1)*nw]
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
				laneAxpy4(c[0], c[1], c[2], c[3], b[pp*ldb:pp*ldb+nw], a0, a1, a2, a3)
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
