package compile

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tensor"
)

// Run executes the program on one CHW input frame and returns the logits.
// All stage loops are guarded on the *current* channel configuration, so a
// worst-case-synthesized (Flexible) program computes exactly what the
// currently loaded pruned model computes — the functional property behind
// the paper's Fig. 3 templates.
func (p *Program) Run(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != p.InC || x.Dim(1) != p.InH || x.Dim(2) != p.InW {
		return nil, fmt.Errorf("compile: input %v does not match %dx%dx%d", x.Shape(), p.InC, p.InH, p.InW)
	}
	cur := make([]float64, x.Len())
	for i, v := range x.Data() {
		cur[i] = float64(v)
	}
	c, h, w := p.InC, p.InH, p.InW
	for _, st := range p.stages {
		var err error
		if cur, c, h, w, err = st.run(cur, c, h, w); err != nil {
			return nil, err
		}
	}
	logits := tensor.New(len(cur))
	for i, v := range cur {
		logits.Data()[i] = float32(v)
	}
	return logits, nil
}

// run executes one stage on a CHW stream of c×h×w values and returns its
// output stream and shape. MVTU stages apply their threshold ladders to
// the accumulators; the head emits them as logits.
func (st *stage) run(in []float64, c, h, w int) ([]float64, int, int, int, error) {
	switch st.kind {
	case stageConv:
		out, oh, ow, err := st.runConv(in, c, h, w)
		if err == nil {
			st.activate(out, oh*ow)
		}
		return out, st.curOutC, oh, ow, err
	case stagePool:
		out, oh, ow, err := st.runPool(in, c, h, w)
		return out, c, oh, ow, err
	default:
		out, err := st.runDense(in)
		if err == nil {
			st.activate(out, 1)
		}
		return out, st.curOutC, 1, 1, err
	}
}

// activate replaces each accumulator of a stream with spatial values per
// channel by its ladder level's activation value; the head, which has no
// ladders, keeps its accumulators.
func (st *stage) activate(acc []float64, spatial int) {
	if st.thresholds == nil {
		return
	}
	for i, a := range acc {
		acc[i] = st.levels[st.thresholds[i/spatial].Code(float32(a))]
	}
}

// runConv is the SWU+MVTU pair: window generation followed by guarded
// dot products.
func (st *stage) runConv(in []float64, inC, inH, inW int) ([]float64, int, int, error) {
	if inC != st.curInC {
		return nil, 0, 0, fmt.Errorf("compile: stage %s fed %d channels, configured for %d", st.name, inC, st.curInC)
	}
	g := st.geom
	if inH != g.InH || inW != g.InW {
		return nil, 0, 0, fmt.Errorf("compile: stage %s fed %dx%d, wants %dx%d", st.name, inH, inW, g.InH, g.InW)
	}
	oh, ow := g.OutH(), g.OutW()
	k2 := g.KH * g.KW
	out := make([]float64, st.curOutC*oh*ow)
	window := make([]float64, st.curInC*k2)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			// SWU: gather the receptive field (zero padding outside).
			for ci := 0; ci < st.curInC; ci++ { // runtime channel guard
				for kh := 0; kh < g.KH; kh++ {
					iy := oy*g.StrideH - g.PadH + kh
					for kw := 0; kw < g.KW; kw++ {
						ix := ox*g.StrideW - g.PadW + kw
						v := 0.0
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							v = in[(ci*inH+iy)*inW+ix]
						}
						window[ci*k2+kh*g.KW+kw] = v
					}
				}
			}
			// MVTU: guarded accumulate.
			for o := 0; o < st.curOutC; o++ { // runtime channel guard
				acc := 0.0
				w := st.weights[o]
				for i := 0; i < st.curInC*k2; i++ {
					acc += w[i] * window[i]
				}
				if st.bias != nil {
					acc += st.bias[o]
				}
				out[(o*oh+oy)*ow+ox] = acc
			}
		}
	}
	return out, oh, ow, nil
}

// runPool is the channel-unrolled MaxPool template.
func (st *stage) runPool(in []float64, inC, inH, inW int) ([]float64, int, int, error) {
	if inC != st.curInC {
		return nil, 0, 0, fmt.Errorf("compile: stage %s fed %d channels, configured for %d", st.name, inC, st.curInC)
	}
	g := st.geom
	oh, ow := g.OutH(), g.OutW()
	out := make([]float64, st.curInC*oh*ow)
	for c := 0; c < st.curInC; c++ { // runtime channel guard on the unroll
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := 0.0
				first := true
				for kh := 0; kh < g.KH; kh++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= inH {
						continue
					}
					for kw := 0; kw < g.KW; kw++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= inW {
							continue
						}
						v := in[(c*inH+iy)*inW+ix]
						if first || v > best {
							best, first = v, false
						}
					}
				}
				out[(c*oh+oy)*ow+ox] = best
			}
		}
	}
	return out, oh, ow, nil
}

// runDense is the dense MVTU's guarded accumulate.
func (st *stage) runDense(in []float64) ([]float64, error) {
	if len(in) != st.curInC {
		return nil, fmt.Errorf("compile: stage %s fed %d values, configured for %d", st.name, len(in), st.curInC)
	}
	out := make([]float64, st.curOutC)
	for o := 0; o < st.curOutC; o++ {
		acc := 0.0
		w := st.weights[o]
		for i := 0; i < st.curInC; i++ { // runtime guard over channel groups
			acc += w[i] * in[i]
		}
		if st.bias != nil {
			acc += st.bias[o]
		}
		out[o] = acc
	}
	return out, nil
}

// LoadModel reloads a flexible program with another pruned version of the
// same initial model: weights and threshold ladders are re-padded into the
// worst-case arrays and the runtime channel configuration is updated —
// the fast model switch (channel-port write + weight reload) of the
// paper's Flexible accelerator.
func (p *Program) LoadModel(m *model.Model) error {
	if !p.Flexible {
		return fmt.Errorf("compile: %s is a fixed program; switching needs reconfiguration", p.Name)
	}
	np, err := Compile(m, true)
	if err != nil {
		return err
	}
	if len(np.WorstChannels) != len(p.WorstChannels) {
		return fmt.Errorf("compile: model has %d convolutions, program has %d", len(np.WorstChannels), len(p.WorstChannels))
	}
	for i := range np.WorstChannels {
		if np.WorstChannels[i] != p.WorstChannels[i] {
			return fmt.Errorf("compile: conv %d worst case %d does not match program %d — not a version of the same initial model",
				i, np.WorstChannels[i], p.WorstChannels[i])
		}
	}
	if len(np.stages) != len(p.stages) {
		return fmt.Errorf("compile: model lowers to %d stages, program has %d", len(np.stages), len(p.stages))
	}
	p.stages = np.stages
	p.CurChannels = np.CurChannels
	return nil
}
