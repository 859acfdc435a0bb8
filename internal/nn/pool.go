package nn

import (
	"encoding/binary"
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
			out.present[j] = m.poolSample(out.levels[j], lv.levels[j])
		}
	})
	m.argmax = nil
	return out
}

// poolSample pools one sample's levels x into dst and returns the set of
// levels written. The 2×2 stride-2 window, the only pool of CNV and
// TinyCNV, runs 8 bytes to a word (pool2x2); any other window runs the
// generic loop.
func (m *MaxPool2D) poolSample(dst, x []uint8) uint64 {
	g := m.Geom
	if g.KH == 2 && g.KW == 2 && g.StrideH == 2 && g.StrideW == 2 {
		return pool2x2(dst, x, g.InC, g.InH, g.InW)
	}
	m.poolGeneric(dst, x)
	return levelSet(dst)
}

// poolGeneric pools one sample's levels x into dst, window by window.
func (m *MaxPool2D) poolGeneric(dst, x []uint8) {
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

// Byte masks of the SWAR pool: the high bit of every byte, and the even
// bytes of a word.
const (
	swarHigh = 0x8080808080808080
	swarEven = 0x00ff00ff00ff00ff
)

// maxBytes is the byte-wise max of a and b, whose bytes are all below 128:
// (a|H)−b keeps each byte's high bit exactly where a ≥ b, and no byte
// borrows from the next.
func maxBytes(a, b uint64) uint64 {
	ge := ((a | swarHigh) - b) & swarHigh
	m := (ge >> 7) * 0xff // 0xff where a ≥ b
	return a&m | b&^m
}

// pool2x2 pools the c×h×w levels x with a 2×2 window at stride 2 into dst
// and returns the set of levels written. For each output row it takes
// the byte-wise max of the two input rows 8 bytes at a time, the max of
// adjacent byte pairs, and compacts the even bytes into 4 output levels;
// an odd last column is never pooled, and the columns past the last whole
// word run one at a time. Levels are below maxLevels, so below 128.
func pool2x2(dst, x []uint8, c, h, w int) uint64 {
	oh, ow := h/2, w/2
	var present uint64
	for ch := range c {
		xc := x[ch*h*w : (ch+1)*h*w]
		for oy := range oh {
			r0 := xc[2*oy*w : (2*oy+1)*w]
			r1 := xc[(2*oy+1)*w : (2*oy+2)*w]
			out := dst[(ch*oh+oy)*ow : (ch*oh+oy+1)*ow]
			ox := 0
			for ; ox+4 <= ow; ox += 4 {
				v := maxBytes(binary.LittleEndian.Uint64(r0[2*ox:]), binary.LittleEndian.Uint64(r1[2*ox:]))
				v = maxBytes(v, v>>8) & swarEven
				v = (v | v>>8) & 0x0000ffff0000ffff
				v = (v | v>>16) & 0xffffffff
				binary.LittleEndian.PutUint32(out[ox:], uint32(v))
				present |= 1<<(v&(maxLevels-1)) | 1<<(v>>8&(maxLevels-1)) |
					1<<(v>>16&(maxLevels-1)) | 1<<(v>>24&(maxLevels-1))
			}
			for ; ox < ow; ox++ {
				l := max(r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1])
				out[ox] = l
				present |= 1 << (l & (maxLevels - 1))
			}
		}
	}
	return present
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
