package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// MaxPool2D is a channel-wise max-pooling layer. FINN maps it to a
// dedicated streaming MaxPool module whose unroll factor depends on the
// channel count — the template AdaFlow must make runtime-controllable.
type MaxPool2D struct {
	ID       string
	Geom     tensor.ConvGeom // KH/KW double as pool window; InC is channels
	argmax   []int           // flat input index per output element
	outShape []int
}

// NewMaxPool2D builds a pooling layer; window and stride come from Geom.
func NewMaxPool2D(id string, geom tensor.ConvGeom) (*MaxPool2D, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	return &MaxPool2D{ID: id, Geom: geom}, nil
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return "maxpool:" + m.ID }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	g := m.Geom
	if x.Rank() != 3 || x.Dim(0) != g.InC || x.Dim(1) != g.InH || x.Dim(2) != g.InW {
		return nil, fmt.Errorf("nn: maxpool %q input %v does not match %dx%dx%d", m.ID, x.Shape(), g.InC, g.InH, g.InW)
	}
	oh, ow := g.OutH(), g.OutW()
	out := tensor.New(g.InC, oh, ow)
	var arg []int
	if train {
		arg = make([]int, g.InC*oh*ow)
	}
	xd, od := x.Data(), out.Data()
	for c := 0; c < g.InC; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bi := -1
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.StrideH - g.PadH + ky
					if iy < 0 || iy >= g.InH {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.StrideW - g.PadW + kx
						if ix < 0 || ix >= g.InW {
							continue
						}
						idx := (c*g.InH+iy)*g.InW + ix
						if xd[idx] > best {
							best, bi = xd[idx], idx
						}
					}
				}
				oidx := (c*oh+oy)*ow + ox
				od[oidx] = best
				if train {
					arg[oidx] = bi
				}
			}
		}
	}
	if train {
		m.argmax = arg
		m.outShape = []int{g.InC, oh, ow}
	} else {
		m.argmax = nil
	}
	return out, nil
}

// poolLevels is inference Forward on a staged batch: QuantAct's ladder is
// monotone, so a window's largest value is the value of its top level, and
// the batch stays in levels. It returns nil, leaving the float path to the
// caller, for a padded pool (a padded window is never pooled on levels)
// or an input shape Forward would refuse.
func (m *MaxPool2D) poolLevels(lv *levelBatch) *levelBatch {
	g := m.Geom
	if g.PadH != 0 || g.PadW != 0 || !slices.Equal(lv.shape, []int{g.InC, g.InH, g.InW}) {
		return nil
	}
	oh, ow := g.OutH(), g.OutW()
	out := newLevelBatch(lv.q, len(lv.levels), g.InC, oh, ow)
	tensor.ParallelFor(len(lv.levels), g.InC*oh*ow*g.KH*g.KW, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			m.poolSample(out.levels[j], lv.levels[j])
			out.present[j] = levelSet(out.levels[j])
		}
	})
	m.argmax = nil
	return out
}

// poolSample pools one sample's levels x into dst.
func (m *MaxPool2D) poolSample(dst, x []uint8) {
	g := m.Geom
	oh, ow := g.OutH(), g.OutW()
	clear(dst) // level 0 is the least, and no window is empty
	for c := 0; c < g.InC; c++ {
		xc := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for oy := 0; oy < oh; oy++ {
			orow := dst[(c*oh+oy)*ow : (c*oh+oy+1)*ow]
			for ky := 0; ky < g.KH; ky++ {
				irow := xc[(oy*g.StrideH+ky)*g.InW : (oy*g.StrideH+ky+1)*g.InW]
				for kx := 0; kx < g.KW; kx++ {
					for ox := range orow {
						orow[ox] = max(orow[ox], irow[ox*g.StrideW+kx])
					}
				}
			}
		}
	}
}

// Backward implements Layer: the gradient routes to each window's argmax.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.argmax == nil {
		return nil, fmt.Errorf("nn: maxpool %q Backward without Forward(train=true)", m.ID)
	}
	if grad.Len() != len(m.argmax) {
		return nil, fmt.Errorf("nn: maxpool %q gradient volume %d, want %d", m.ID, grad.Len(), len(m.argmax))
	}
	g := m.Geom
	dx := tensor.New(g.InC, g.InH, g.InW)
	gd, dxd := grad.Data(), dx.Data()
	for i, src := range m.argmax {
		if src >= 0 {
			dxd[src] += gd[i]
		}
	}
	return dx, nil
}

// Pruned returns a copy of the pooling layer narrowed to channels inputs
// after an upstream filter prune. Pooling has no weights; only the
// geometry changes.
func (m *MaxPool2D) Pruned(channels int) (*MaxPool2D, error) {
	if channels <= 0 || channels > m.Geom.InC {
		return nil, fmt.Errorf("nn: maxpool %q cannot set channels to %d (have %d)", m.ID, channels, m.Geom.InC)
	}
	p := &MaxPool2D{ID: m.ID, Geom: m.Geom}
	p.Geom.InC = channels
	return p, nil
}

// Flatten reshapes any input to a rank-1 tensor; it exists so dense heads
// can follow convolutional stacks without shape bookkeeping in the model
// builder.
type Flatten struct {
	ID      string
	inShape []int
}

// NewFlatten builds a flatten layer.
func NewFlatten(id string) *Flatten { return &Flatten{ID: id} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten:" + f.ID }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if train {
		f.inShape = append([]int(nil), x.Shape()...)
	}
	return x.Reshape(x.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.inShape == nil {
		return nil, fmt.Errorf("nn: flatten %q Backward without Forward(train=true)", f.ID)
	}
	return grad.Reshape(f.inShape...)
}
