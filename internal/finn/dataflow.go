package finn

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
)

// ClockHz is the paper's accelerator clock (ZCU104 at 100 MHz).
const ClockHz = 100e6

// fifoDepth is the depth of the stream FIFOs inserted between stages for
// the resource model.
const fifoDepth = 32

// Options configure the CNN→dataflow mapping.
type Options struct {
	// Flexible builds AdaFlow's runtime-controllable templates
	// (synthesized to the model's worst-case channel counts); false builds
	// regular FINN fixed templates.
	Flexible bool
}

// Dataflow is a synthesized streaming accelerator: an ordered pipeline of
// modules plus clocking and provenance metadata.
type Dataflow struct {
	Name     string
	Model    string // model.Key() of the CNN it was synthesized from
	Flexible bool
	ClockHz  float64
	Modules  []*Module

	// WorstChannels are the per-convolution synthesis channel counts (the
	// initial model's channels for Flexible accelerators).
	WorstChannels []int
	// CurChannels is the per-convolution runtime configuration.
	CurChannels []int
}

// convFootprints returns, per convolution, the spatial footprint (elements
// per channel) of its output once it reaches the flatten boundary: the
// product of pooling reductions downstream does not matter — what pruning
// needs is the footprint at the flatten, which for CNN heads equals the
// spatial size of the last feature map. For every convolution we record
// the footprint its channels would have if flattened right after it (used
// only for the final convolution in practice).
func convFootprints(m *model.Model) ([]int, error) {
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		return nil, err
	}
	var foots []int
	// Walk layers; when a conv appears, track its index; the footprint of
	// a conv is the spatial size of the last rank-3 shape before flatten
	// if it is the final conv, else its own output spatial size.
	convAt := []int{}
	for li, nl := range m.Net.Layers {
		if _, ok := nl.Layer.(*nn.Conv2D); ok {
			convAt = append(convAt, li)
		}
	}
	for ci, li := range convAt {
		foot := shapes[li][1] * shapes[li][2]
		if ci == len(convAt)-1 {
			// Follow pooling until the shape goes flat.
			for lj := li; lj < len(m.Net.Layers); lj++ {
				if len(shapes[lj]) == 3 {
					foot = shapes[lj][1] * shapes[lj][2]
				} else {
					break
				}
			}
		}
		foots = append(foots, foot)
	}
	return foots, nil
}

// Map synthesizes a dataflow accelerator from a model with the given
// folding. Every convolution becomes an SWU + MVTU pair, every pooling
// layer a MaxPool module, every dense layer a dense MVTU; FIFOs are
// inserted between stages. ScaleShift/QuantAct layers are absorbed into
// the MVTUs' threshold ladders, as in FINN.
func Map(m *model.Model, fold Folding, opts Options) (*Dataflow, error) {
	if err := fold.Validate(m); err != nil {
		return nil, err
	}
	worst := m.BaseChannels
	cur := m.ConvChannels()
	if opts.Flexible {
		if len(worst) != len(cur) {
			return nil, fmt.Errorf("finn: model %s has %d convolutions but %d base channel entries",
				m.Key(), len(cur), len(worst))
		}
		for i := range cur {
			if cur[i] > worst[i] {
				return nil, fmt.Errorf("finn: conv %d has %d channels exceeding worst case %d", i, cur[i], worst[i])
			}
		}
	} else {
		worst = cur
	}

	key := m.Key()
	df := &Dataflow{
		Name:          key + "-" + kindName(opts.Flexible),
		Model:         key,
		Flexible:      opts.Flexible,
		ClockHz:       ClockHz,
		WorstChannels: append([]int(nil), worst...),
		CurChannels:   append([]int(nil), cur...),
	}

	abits := m.ABits
	if abits == 0 {
		abits = 32
	}
	// Weight bits are per layer: a layer carrying its own quantizer (e.g.
	// an 8-bit input layer in an otherwise binary network) overrides the
	// model default.
	layerWBits := func(q *quant.WeightQuantizer) int {
		if q != nil {
			return q.Bits
		}
		if m.WBits > 0 {
			return m.WBits
		}
		return 32
	}

	convIdx := -1
	denseIdx := -1
	prevConv := -1 // conv index currently defining the stream's channels
	foots, err := convFootprints(m)
	if err != nil {
		return nil, err
	}
	for li, nl := range m.Net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			convIdx++
			// Synthesis-time input channels: worst case of the producing
			// conv (or the network input channels).
			synIn := l.Geom.InC
			if opts.Flexible && prevConv >= 0 {
				synIn = worst[prevConv]
			}
			synOut := l.OutC
			if opts.Flexible {
				synOut = worst[convIdx]
			}
			swu := &Module{
				Kind: KindSWU, Name: fmt.Sprintf("swu%d", convIdx),
				SynInC: synIn, SynOutC: synIn,
				InH: l.Geom.InH, InW: l.Geom.InW,
				OutH: l.Geom.OutH(), OutW: l.Geom.OutW(),
				KH: l.Geom.KH, KW: l.Geom.KW,
				SIMD: fold.ConvSIMD[convIdx], PE: 1,
				WBits: layerWBits(l.Quant), ABits: abits,
				Flexible: opts.Flexible,
				CurInC:   l.Geom.InC, CurOutC: l.Geom.InC,
				InChanConv: prevConv, OutChanConv: prevConv, InFoot: 1,
			}
			mvtu := &Module{
				Kind: KindMVTUConv, Name: fmt.Sprintf("mvtu%d", convIdx),
				SynInC: synIn, SynOutC: synOut,
				InH: l.Geom.InH, InW: l.Geom.InW,
				OutH: l.Geom.OutH(), OutW: l.Geom.OutW(),
				KH: l.Geom.KH, KW: l.Geom.KW,
				PE: fold.ConvPE[convIdx], SIMD: fold.ConvSIMD[convIdx],
				WBits: layerWBits(l.Quant), ABits: abits,
				Flexible: opts.Flexible,
				CurInC:   l.Geom.InC, CurOutC: l.OutC,
				InChanConv: prevConv, OutChanConv: convIdx, InFoot: 1,
			}
			df.Modules = append(df.Modules, swu, mvtu, fifoAfter(mvtu))
			prevConv = convIdx
		case *nn.MaxPool2D:
			synC := l.Geom.InC
			if opts.Flexible && prevConv >= 0 {
				synC = worst[prevConv]
			}
			mp := &Module{
				Kind: KindMaxPool, Name: fmt.Sprintf("pool@%d", li),
				SynInC: synC, SynOutC: synC,
				InH: l.Geom.InH, InW: l.Geom.InW,
				OutH: l.Geom.OutH(), OutW: l.Geom.OutW(),
				KH: l.Geom.KH, KW: l.Geom.KW,
				PE: 1, SIMD: 1,
				WBits: layerWBits(nil), ABits: abits,
				Flexible: opts.Flexible,
				CurInC:   l.Geom.InC, CurOutC: l.Geom.InC,
				InChanConv: prevConv, OutChanConv: prevConv, InFoot: 1,
			}
			df.Modules = append(df.Modules, mp, fifoAfter(mp))
		case *nn.Dense:
			denseIdx++
			synIn := l.In
			foot := 1
			inConv := -1
			if denseIdx == 0 && prevConv >= 0 {
				foot = foots[prevConv]
				inConv = prevConv
				if opts.Flexible {
					synIn = worst[prevConv] * foot
				}
			}
			mv := &Module{
				Kind: KindMVTUDense, Name: fmt.Sprintf("fc%d", denseIdx),
				SynInC: synIn, SynOutC: l.Out,
				InH: 1, InW: 1, OutH: 1, OutW: 1, KH: 1, KW: 1,
				PE: fold.DensePE[denseIdx], SIMD: fold.DenseSIMD[denseIdx],
				WBits: layerWBits(l.Quant), ABits: abits,
				Flexible: opts.Flexible,
				CurInC:   l.In, CurOutC: l.Out,
				InChanConv: inConv, OutChanConv: -1, InFoot: foot,
			}
			df.Modules = append(df.Modules, mv, fifoAfter(mv))
			prevConv = -1 // dense outputs are never channel-bound
		default:
			// ScaleShift, QuantAct, ReLU, Flatten: absorbed.
		}
	}
	for _, mod := range df.Modules {
		if err := mod.Validate(); err != nil {
			return nil, err
		}
	}
	return df, nil
}

// fifoAfter builds the inter-stage FIFO following a module.
func fifoAfter(m *Module) *Module {
	return &Module{
		Kind: KindFIFO, Name: m.Name + ".fifo",
		SynInC: m.SynOutC, SynOutC: m.SynOutC,
		InH: m.OutH, InW: m.OutW, OutH: m.OutH, OutW: m.OutW,
		KH: 1, KW: 1, PE: fifoDepth, SIMD: 1,
		WBits: m.WBits, ABits: m.ABits,
		Flexible: m.Flexible,
		CurInC:   m.CurOutC, CurOutC: m.CurOutC,
		InChanConv: m.OutChanConv, OutChanConv: m.OutChanConv, InFoot: 1,
	}
}

func kindName(flexible bool) string {
	if flexible {
		return "flexible"
	}
	return "fixed"
}

// IICycles returns the pipeline initiation interval: the slowest module's
// cycles per frame.
func (d *Dataflow) IICycles() int64 {
	var max int64
	for _, m := range d.Modules {
		if c := m.CyclesPerFrame(); c > max {
			max = c
		}
	}
	return max
}

// LatencyCycles returns the end-to-end latency of one frame through the
// empty pipeline: the sum of module cycles.
func (d *Dataflow) LatencyCycles() int64 {
	var sum int64
	for _, m := range d.Modules {
		sum += m.CyclesPerFrame()
	}
	return sum
}

// FPS returns the steady-state throughput in frames per second.
func (d *Dataflow) FPS() float64 {
	ii := d.IICycles()
	if ii == 0 {
		return 0
	}
	return d.ClockHz / float64(ii)
}

// LatencySeconds returns single-frame latency in seconds.
func (d *Dataflow) LatencySeconds() float64 {
	return float64(d.LatencyCycles()) / d.ClockHz
}

// SetChannels reconfigures a Flexible accelerator to a model version with
// the given per-convolution output channel counts. It validates every
// module's runtime folding constraints; fixed accelerators reject any
// change.
func (d *Dataflow) SetChannels(channels []int) error {
	if !d.Flexible {
		return fmt.Errorf("finn: %s is a fixed accelerator; model switching requires FPGA reconfiguration", d.Name)
	}
	if len(channels) != len(d.WorstChannels) {
		return fmt.Errorf("finn: %s has %d convolutions, got %d channel counts", d.Name, len(d.WorstChannels), len(channels))
	}
	for i, ch := range channels {
		if ch <= 0 || ch > d.WorstChannels[i] {
			return fmt.Errorf("finn: conv %d channels %d out of (0,%d]", i, ch, d.WorstChannels[i])
		}
	}
	// Apply tentatively, validate, roll back on failure.
	type saved struct{ in, out int }
	old := make([]saved, len(d.Modules))
	for i, m := range d.Modules {
		old[i] = saved{m.CurInC, m.CurOutC}
		if m.InChanConv >= 0 {
			m.CurInC = channels[m.InChanConv] * m.InFoot
		}
		if m.OutChanConv >= 0 {
			m.CurOutC = channels[m.OutChanConv]
		}
	}
	for _, m := range d.Modules {
		if err := m.Validate(); err != nil {
			for i, mm := range d.Modules {
				mm.CurInC, mm.CurOutC = old[i].in, old[i].out
			}
			return err
		}
	}
	d.CurChannels = append(d.CurChannels[:0], channels...)
	return nil
}
