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
	case g.KH > g.InH+2*g.PadH || g.KW > g.InW+2*g.PadW:
		// OutH and OutW truncate toward zero, so a stride larger than the
		// overhang would give such a kernel one output position.
		return fmt.Errorf("tensor: conv kernel %dx%d exceeds padded input %dx%d", g.KH, g.KW, g.InH+2*g.PadH, g.InW+2*g.PadW)
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
