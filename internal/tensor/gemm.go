package tensor

import "fmt"

// The GEMM kernels below are register-blocked and parallel: output rows are
// split across the package worker pool (see pool.go) and the hot loops
// process four rows (or four output columns for the Bᵀ case) per pass so
// each row of B is read once per four rows of C. Every variant preserves
// the exact accumulation order of the original serial ikj kernel — for a
// given output element, contributions are added in ascending p with the
// same skip-on-zero semantics — so results are bit-identical to the serial
// reference no matter how many workers run.

// GemmInto computes dst = A·B for row-major matrices, A (m×k) and B (k×n),
// overwriting dst, which must be a rank-2 (m×n) tensor supplied by the
// caller (typically borrowed from the scratch arena). dst must not alias a
// or b. It is the workhorse behind convolution via im2col and dense
// layers.
func GemmInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: Gemm needs rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: Gemm inner dimensions differ: %d vs %d", k, k2)
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: GemmInto dst %v, want %dx%d", dst.shape, m, n)
	}
	ad, bd, cd := a.data, b.data, dst.data
	parallelFor(m, k*n, func(lo, hi int) {
		gemmRows(ad, bd, cd, lo, hi, k, n)
	})
	return nil
}

// gemmRows computes rows [lo, hi) of C = A·B with a 4-row register block.
func gemmRows(ad, bd, cd []float32, lo, hi, k, n int) {
	clear(cd[lo*n : hi*n])
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := cd[i*n : (i+1)*n]
		c1 := cd[(i+1)*n : (i+2)*n]
		c2 := cd[(i+2)*n : (i+3)*n]
		c3 := cd[(i+3)*n : (i+4)*n]
		a0 := ad[i*k : (i+1)*k]
		a1 := ad[(i+1)*k : (i+2)*k]
		a2 := ad[(i+2)*k : (i+3)*k]
		a3 := ad[(i+3)*k : (i+4)*k]
		for p := 0; p < k; p++ {
			brow := bd[p*n : (p+1)*n]
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				axpy4(c0, c1, c2, c3, brow, av0, av1, av2, av3)
				continue
			}
			// Some row skips this p: fuse only the nonzero rows so brow
			// is still read once while each row keeps the exact
			// skip-on-zero semantics of the serial kernel.
			var rows [3][]float32
			var coef [3]float32
			nz := 0
			if av0 != 0 {
				rows[nz], coef[nz] = c0, av0
				nz++
			}
			if av1 != 0 {
				rows[nz], coef[nz] = c1, av1
				nz++
			}
			if av2 != 0 {
				rows[nz], coef[nz] = c2, av2
				nz++
			}
			if av3 != 0 {
				rows[nz], coef[nz] = c3, av3
				nz++
			}
			switch nz {
			case 3:
				axpy3(rows[0], rows[1], rows[2], brow, coef[0], coef[1], coef[2])
			case 2:
				axpy2(rows[0], rows[1], brow, coef[0], coef[1])
			case 1:
				axpy(rows[0], brow, coef[0])
			}
		}
	}
	for ; i < hi; i++ {
		crow := cd[i*n : (i+1)*n]
		arow := ad[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			if av := arow[p]; av != 0 {
				axpy(crow, bd[p*n:(p+1)*n], av)
			}
		}
	}
}

// axpy adds a·b to c element-wise; b and c have equal length. Like its
// wider siblings below it is kept out of line: inlined into gemmRows it
// inherits that function's register pressure and the row pointers spill
// to the stack inside the hot loop.
//
//go:noinline
func axpy(c, b []float32, a float32) {
	c = c[:len(b)]
	for j, bv := range b {
		c[j] += a * bv
	}
}

// axpy2 is axpy over two destination rows sharing one pass over b.
//
//go:noinline
func axpy2(c0, c1, b []float32, a0, a1 float32) {
	c0 = c0[:len(b)]
	c1 = c1[:len(b)]
	for j, bv := range b {
		c0[j] += a0 * bv
		c1[j] += a1 * bv
	}
}

// axpy3 is axpy over three destination rows sharing one pass over b.
//
//go:noinline
func axpy3(c0, c1, c2, b []float32, a0, a1, a2 float32) {
	c0 = c0[:len(b)]
	c1 = c1[:len(b)]
	c2 = c2[:len(b)]
	for j, bv := range b {
		c0[j] += a0 * bv
		c1[j] += a1 * bv
		c2[j] += a2 * bv
	}
}

// axpy4 is axpy over four destination rows sharing one pass over b.
//
//go:noinline
func axpy4(c0, c1, c2, c3, b []float32, a0, a1, a2, a3 float32) {
	c0 = c0[:len(b)]
	c1 = c1[:len(b)]
	c2 = c2[:len(b)]
	c3 = c3[:len(b)]
	for j, bv := range b {
		c0[j] += a0 * bv
		c1[j] += a1 * bv
		c2[j] += a2 * bv
		c3[j] += a3 * bv
	}
}

// GemmTransAInto computes dst = Aᵀ·B, where A is (k×m) and B is (k×n),
// overwriting dst (rank-2, m×n). dst must not alias a or b. Used by the
// convolution backward pass.
func GemmTransAInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: GemmTransA needs rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: GemmTransA inner dimensions differ: %d vs %d", k, k2)
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: GemmTransAInto dst %v, want %dx%d", dst.shape, m, n)
	}
	ad, bd, cd := a.data, b.data, dst.data
	parallelFor(m, k*n, func(lo, hi int) {
		clear(cd[lo*n : hi*n])
		for p := 0; p < k; p++ {
			apRow := ad[p*m : (p+1)*m]
			brow := bd[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				if av := apRow[i]; av != 0 {
					axpy(cd[i*n:(i+1)*n], brow, av)
				}
			}
		}
	})
	return nil
}

// GemmTransBInto computes dst = A·Bᵀ, where A is (m×k) and B is (n×k),
// overwriting dst (rank-2, m×n). dst must not alias a or b. Used by the
// convolution backward pass.
func GemmTransBInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: GemmTransB needs rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: GemmTransB inner dimensions differ: %d vs %d", k, k2)
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: GemmTransBInto dst %v, want %dx%d", dst.shape, m, n)
	}
	ad, bd, cd := a.data, b.data, dst.data
	parallelFor(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := bd[j*k : (j+1)*k]
				b1 := bd[(j+1)*k : (j+2)*k]
				b2 := bd[(j+2)*k : (j+3)*k]
				b3 := bd[(j+3)*k : (j+4)*k]
				// Four dot products share one pass over arow; each
				// accumulator still sums in ascending p, matching the
				// serial kernel bit for bit. Reslicing to len(arow)
				// drops the bounds checks.
				b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
				var s0, s1, s2, s3 float32
				for p, av := range arow {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				crow[j] = s
			}
		}
	})
	return nil
}
