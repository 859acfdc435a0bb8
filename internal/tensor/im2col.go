package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial size
	KH, KW        int // kernel size
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height of the window sweep.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width of the window sweep.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports whether the geometry describes at least one valid window
// position with positive sizes and strides.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input %dx%dx%d", g.InC, g.InH, g.InW)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel %dx%d", g.KH, g.KW)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride %dx%d", g.StrideH, g.StrideW)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding %dx%d", g.PadH, g.PadW)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %dx%d", g.OutH(), g.OutW())
	}
	return nil
}

// Im2ColInto lowers a CHW input into dst, a caller-provided
// (InC·KH·KW)×(OutH·OutW) tensor (typically borrowed from the scratch
// arena): each column holds one receptive field. This is the software
// analogue of FINN's Sliding Window Unit (SWU), which streams exactly these
// windows into the MVTU. Every element of dst
// is written: positions that fall into padding are zeroed, so dst may hold
// stale data on entry. Channels are split across the package worker pool;
// each output row belongs to exactly one channel, so the result is
// identical for any worker count.
func Im2ColInto(dst, in *Tensor, g ConvGeom) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if in.Rank() != 3 || in.shape[0] != g.InC || in.shape[1] != g.InH || in.shape[2] != g.InW {
		return fmt.Errorf("tensor: Im2Col input %v does not match geometry %dx%dx%d", in.shape, g.InC, g.InH, g.InW)
	}
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := oh * ow
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != cols {
		return fmt.Errorf("tensor: Im2ColInto dst %v, want %dx%d", dst.shape, rows, cols)
	}
	od := dst.data
	id := in.data
	rowsPerC := g.KH * g.KW
	parallelFor(g.InC, rowsPerC*cols, func(cLo, cHi int) {
		clear(od[cLo*rowsPerC*cols : cHi*rowsPerC*cols])
		for c := cLo; c < cHi; c++ {
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					r := (c*g.KH+kh)*g.KW + kw
					rowBase := r * cols
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.StrideH - g.PadH + kh
						if iy < 0 || iy >= g.InH {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*g.StrideW - g.PadW + kw
							if ix < 0 || ix >= g.InW {
								continue
							}
							od[rowBase+oy*ow+ox] = id[(c*g.InH+iy)*g.InW+ix]
						}
					}
				}
			}
		}
	})
	return nil
}

// convTileCols is the width of one streamed patch panel of the fused int8
// convolution: one kcPanel×convTileCols int8 panel (32 KiB) plus the lane
// accumulator rows it feeds stay cache-resident.
const convTileCols = 128

// ConvInt8BatchInto convolves B same-geometry inputs against one weight
// matrix: dsts[b] = rescale(W · im2col(xs[b])), where W is the
// (OutC × InC·KH·KW) int8 weight matrix, xs[b] the int8-quantized CHW
// input, and rescale multiplies output row o by outScales[b][o] (or
// outScales[b][0] when one tensor-wide scale is given). Each dsts[b] is a
// caller-provided rank-2 (OutC × OutH·OutW) float32 tensor, fully
// overwritten. The inner dimension InC·KH·KW must be below maxLaneK.
//
// This is the fused streaming SWU+MVTU. Output positions are cut into
// tiles of tw = max(1, convTileCols/B) positions per sample, and for each
// tile the receptive-field windows of all B samples are lowered side by
// side into one kcPanel × (B·tw) panel (streamPatchPanel), so a late layer
// with a handful of output positions still feeds the kernel a panel about
// convTileCols wide. Each panel goes straight into the paired-lane kernel
// (mulInt8Lanes); after the last panel of a tile the int64 lanes are
// unpacked and rescaled into the float outputs. Peak scratch is one panel
// and one lane tile per worker instead of the full patch matrix.
//
// Tiles are split across the package worker pool. Every output element
// accumulates exactly its own products, and integer accumulation is exact,
// so each dsts[b] is bit-identical to the sample convolved alone (B = 1)
// for any worker count and batch size.
func ConvInt8BatchInto(dsts []*Tensor, w *Int8Matrix, xs [][]int8, g ConvGeom, outScales [][]float32) error {
	outC := w.Rows
	if err := validateConvBatch("ConvInt8BatchInto", dsts, xs, g, outC, outScales); err != nil {
		return err
	}
	bsz := len(dsts)
	ow := g.OutW()
	cols := g.OutH() * ow
	k := g.InC * g.KH * g.KW
	if w.Cols != k || len(w.Data) != outC*k {
		return fmt.Errorf("tensor: ConvInt8BatchInto weights %dx%d, want %dx%d", w.Rows, w.Cols, outC, k)
	}
	wd := w.Data
	kc := min(kcPanel, k)
	tw := min(cols, max(1, convTileCols/bsz))
	pairs := (outC + 1) / 2
	parallelFor((cols+tw-1)/tw, bsz*outC*k*tw, func(tLo, tHi int) {
		panel := BorrowInt8(kc * bsz * tw)
		acc := BorrowInt64(pairs * bsz * tw)
		defer ReleaseInt8(panel)
		defer ReleaseInt64(acc)
		for t := tLo; t < tHi; t++ {
			j0 := t * tw
			j1 := min(j0+tw, cols)
			sw := j1 - j0 // this tile's positions per sample
			n := bsz * sw
			lanes := acc[:pairs*n]
			clear(lanes)
			for p0 := 0; p0 < k; p0 += kc {
				p1 := min(p0+kc, k)
				for b, x := range xs {
					streamPatchPanel(panel, n, b*sw, x, g, p0, p1, j0, j1, ow)
				}
				mulInt8Lanes(lanes, wd, outC, k, p0, p1, panel, n)
			}
			for b, dst := range dsts {
				s := outScales[b]
				for q := 0; q < pairs; q++ {
					o := 2 * q
					src := lanes[q*n+b*sw : q*n+b*sw+sw]
					lo := dst.data[o*cols+j0 : o*cols+j1]
					sLo := s[min(o, len(s)-1)] // one scale, or one per channel
					if o+1 == outC {
						for jj, x := range src {
							lo[jj] = float32(int32(x)) * sLo
						}
						continue
					}
					hi := dst.data[(o+1)*cols+j0 : (o+1)*cols+j1]
					sHi := s[min(o+1, len(s)-1)]
					for jj, x := range src {
						l, h := unpackLanes(x)
						lo[jj] = float32(l) * sLo
						hi[jj] = float32(h) * sHi
					}
				}
			}
		}
	})
	return nil
}

// validateConvBatch checks the arguments shared by the batched integer
// convolutions: a valid geometry, equal non-zero counts of dsts, xs and
// outScales, inputs and outputs of the geometry's size, 1 or outC scales
// per sample, and an inner dimension InC·KH·KW below maxLaneK, so every
// kernel accepts and refuses the same calls.
func validateConvBatch[S int8 | uint8](op string, dsts []*Tensor, xs [][]S, g ConvGeom, outC int, outScales [][]float32) error {
	if err := g.Validate(); err != nil {
		return err
	}
	bsz := len(dsts)
	if bsz == 0 || len(xs) != bsz || len(outScales) != bsz {
		return fmt.Errorf("tensor: %s wants equal non-zero dsts/xs/outScales, got %d/%d/%d",
			op, len(dsts), len(xs), len(outScales))
	}
	if k := g.InC * g.KH * g.KW; k >= maxLaneK {
		return fmt.Errorf("tensor: %s inner dimension %d exceeds the paired-lane bound %d", op, k, maxLaneK-1)
	}
	cols := g.OutH() * g.OutW()
	for b := 0; b < bsz; b++ {
		if len(xs[b]) != g.InC*g.InH*g.InW {
			return fmt.Errorf("tensor: %s input %d length %d does not match geometry %dx%dx%d",
				op, b, len(xs[b]), g.InC, g.InH, g.InW)
		}
		if dsts[b].Rank() != 2 || dsts[b].shape[0] != outC || dsts[b].shape[1] != cols {
			return fmt.Errorf("tensor: %s dst %d %v, want %dx%d", op, b, dsts[b].shape, outC, cols)
		}
		if len(outScales[b]) != 1 && len(outScales[b]) != outC {
			return fmt.Errorf("tensor: %s wants 1 or %d output scales for sample %d, got %d",
				op, outC, b, len(outScales[b]))
		}
	}
	return nil
}

// streamPatchPanel lowers patch-matrix rows [p0,p1) restricted to output
// positions [j0,j1) into panel, zeroing padding: patch row r lands at
// panel[(r-p0)·ld+off:][:j1-j0]. This is Im2ColInto's loop nest confined
// to one cache panel, and ld/off let several samples share the panel.
func streamPatchPanel(panel []int8, ld, off int, x []int8, g ConvGeom, p0, p1, j0, j1, ow int) {
	kk := g.KH * g.KW
	for r := p0; r < p1; r++ {
		c := r / kk
		rem := r % kk
		kh := rem / g.KW
		kw := rem % g.KW
		dstRow := panel[(r-p0)*ld+off : (r-p0)*ld+off+j1-j0]
		j := j0
		for j < j1 {
			oy := j / ow
			ox := j % ow
			rowEnd := min(j1, (oy+1)*ow)
			iy := oy*g.StrideH - g.PadH + kh
			if iy < 0 || iy >= g.InH {
				clear(dstRow[j-j0 : rowEnd-j0])
				j = rowEnd
				continue
			}
			base := (c*g.InH + iy) * g.InW
			for ; j < rowEnd; j++ {
				ix := ox*g.StrideW - g.PadW + kw
				if ix < 0 || ix >= g.InW {
					dstRow[j-j0] = 0
				} else {
					dstRow[j-j0] = x[base+ix]
				}
				ox++
			}
		}
	}
}

// Col2ImInto is the adjoint of Im2ColInto: it scatters a
// (InC·KH·KW)×(OutH·OutW) matrix of per-window gradients back onto dst, a
// caller-provided CHW tensor, summing where windows overlap; dst's
// contents are overwritten (it may hold stale data on entry). Used by the
// convolution backward pass. Channels are split across the package worker
// pool; each channel of dst is written by exactly one worker in the serial
// loop's order, so results are identical for any worker count.
func Col2ImInto(dst, cols *Tensor, g ConvGeom) error {
	if err := g.Validate(); err != nil {
		return err
	}
	oh, ow := g.OutH(), g.OutW()
	wantRows := g.InC * g.KH * g.KW
	wantCols := oh * ow
	if cols.Rank() != 2 || cols.shape[0] != wantRows || cols.shape[1] != wantCols {
		return fmt.Errorf("tensor: Col2Im input %v does not match geometry (want %dx%d)", cols.shape, wantRows, wantCols)
	}
	if dst.Rank() != 3 || dst.shape[0] != g.InC || dst.shape[1] != g.InH || dst.shape[2] != g.InW {
		return fmt.Errorf("tensor: Col2ImInto dst %v, want %dx%dx%d", dst.shape, g.InC, g.InH, g.InW)
	}
	od := dst.data
	cd := cols.data
	plane := g.InH * g.InW
	parallelFor(g.InC, g.KH*g.KW*wantCols+plane, func(cLo, cHi int) {
		clear(od[cLo*plane : cHi*plane])
		for c := cLo; c < cHi; c++ {
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					r := (c*g.KH+kh)*g.KW + kw
					rowBase := r * wantCols
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.StrideH - g.PadH + kh
						if iy < 0 || iy >= g.InH {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*g.StrideW - g.PadW + kw
							if ix < 0 || ix >= g.InW {
								continue
							}
							od[(c*g.InH+iy)*g.InW+ix] += cd[rowBase+oy*ow+ox]
						}
					}
				}
			}
		}
	})
	return nil
}
