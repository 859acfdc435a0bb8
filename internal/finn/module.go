// Package finn models FINN-style streaming dataflow accelerators: the
// hardware modules a CNN maps to (Sliding Window Units, Matrix-Vector-
// Threshold Units, MaxPool units, FIFOs), their PE/SIMD folding, cycle
// behaviour, and AdaFlow's Flexible variants whose channel counts are
// runtime-controllable.
//
// The cycle model is FINN's folding arithmetic: an MVTU executing a matrix
// of shape (K²·InC) × OutC over OutH·OutW pixels with SIMD lanes and PE
// processing elements needs
//
//	OutH·OutW · (K²·InC / SIMD) · (OutC / PE)
//
// cycles per frame. A dataflow pipeline's throughput is set by its slowest
// module (the initiation interval) and its latency by the sum over
// modules. Flexible modules are synthesized for worst-case channel counts;
// at runtime fewer channels mean fewer pipeline iterations for
// MVTUs/SWUs (faster) but unchanged trip counts for channel-unrolled
// MaxPool units, plus a small control overhead — exactly the behaviour of
// the paper's modified HLS templates (Fig. 3).
package finn

import "fmt"

// ModuleKind enumerates the hardware module templates.
type ModuleKind int

// Module kinds, in stream order of a typical conv block.
const (
	KindSWU ModuleKind = iota
	KindMVTUConv
	KindMVTUDense
	KindMaxPool
	KindFIFO
)

// String returns the FINN-ish template name.
func (k ModuleKind) String() string {
	switch k {
	case KindSWU:
		return "SWU"
	case KindMVTUConv:
		return "MVTU(conv)"
	case KindMVTUDense:
		return "MVTU(dense)"
	case KindMaxPool:
		return "MaxPool"
	case KindFIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("ModuleKind(%d)", int(k))
	}
}

// Flexible-latency overhead factors: the runtime-controllable if-guards
// lengthen the pipeline slightly. Calibrated so end-to-end latency of a
// Flexible accelerator is ~0.7 % worse on average than its Fixed
// counterpart, up to a few percent for channel-unrolled modules (paper
// §VI-A reports 0.67 % average, 3.7 % max).
const (
	flexOverheadStream  = 0.0067 // SWU / MVTU: guard on pipeline feeding
	flexOverheadUnroll  = 0.037  // MaxPool: guard on every unrolled unit
	flexChannelPortBits = 16     // extra runtime channel port width (paper §IV-A2)
)

// mvtuControlOverhead models MVTU pipeline ramp-up and control bubbles on
// top of the ideal folding cycle count. Calibrated so the paper-scale
// CNVW2A2 baseline lands at the ≈461 FPS capacity the paper's Table I
// frame-loss figures imply for its workload (see DESIGN.md).
const mvtuControlOverhead = 0.08

// Module is one hardware stage of a dataflow accelerator.
//
// Syn* fields are synthesis-time values (worst case for Flexible modules);
// Cur* fields are the currently configured channel counts, which equal the
// Syn values for Fixed modules and can be lowered at runtime for Flexible
// ones.
type Module struct {
	Kind ModuleKind
	Name string

	// Geometry at synthesis time.
	SynInC, SynOutC int // channel counts (dense: flattened in/out sizes)
	InH, InW        int
	OutH, OutW      int
	KH, KW          int

	// Folding.
	PE   int
	SIMD int

	// Precision.
	WBits, ABits int

	// Flexible marks a runtime-controllable AdaFlow template.
	Flexible bool

	// Runtime channel configuration.
	CurInC, CurOutC int

	// Channel binding: index of the model convolution whose output
	// channels determine CurInC / CurOutC (-1 when fixed by the network
	// input or a dense output). InFoot is the flattened spatial footprint
	// multiplier for dense inputs (1 elsewhere).
	InChanConv  int
	OutChanConv int
	InFoot      int
}

// Validate checks synthesis-time invariants: positive geometry and FINN's
// folding divisibility rules.
func (m *Module) Validate() error {
	if m.SynInC <= 0 {
		return fmt.Errorf("finn: %s %q: non-positive input channels %d", m.Kind, m.Name, m.SynInC)
	}
	if m.CurInC <= 0 || m.CurInC > m.SynInC {
		return fmt.Errorf("finn: %s %q: runtime input channels %d out of (0,%d]", m.Kind, m.Name, m.CurInC, m.SynInC)
	}
	switch m.Kind {
	case KindSWU:
		if m.SIMD <= 0 || (m.KH*m.KW*m.SynInC)%m.SIMD != 0 {
			return fmt.Errorf("finn: SWU %q: SIMD %d does not divide K²·InC = %d", m.Name, m.SIMD, m.KH*m.KW*m.SynInC)
		}
	case KindMVTUConv:
		if m.PE <= 0 || m.SynOutC%m.PE != 0 {
			return fmt.Errorf("finn: MVTU %q: PE %d does not divide OutC %d", m.Name, m.PE, m.SynOutC)
		}
		if m.SIMD <= 0 || (m.KH*m.KW*m.SynInC)%m.SIMD != 0 {
			return fmt.Errorf("finn: MVTU %q: SIMD %d does not divide K²·InC = %d", m.Name, m.SIMD, m.KH*m.KW*m.SynInC)
		}
	case KindMVTUDense:
		if m.PE <= 0 || m.SynOutC%m.PE != 0 {
			return fmt.Errorf("finn: MVTU %q: PE %d does not divide Out %d", m.Name, m.PE, m.SynOutC)
		}
		if m.SIMD <= 0 || m.SynInC%m.SIMD != 0 {
			return fmt.Errorf("finn: MVTU %q: SIMD %d does not divide In %d", m.Name, m.SIMD, m.SynInC)
		}
	case KindMaxPool, KindFIFO:
		// No folding constraints.
	default:
		return fmt.Errorf("finn: module %q has unknown kind %d", m.Name, int(m.Kind))
	}
	if m.Flexible {
		return m.validateRuntime()
	}
	if m.CurInC != m.SynInC || m.CurOutC != m.SynOutC {
		return fmt.Errorf("finn: fixed module %q has runtime channels differing from synthesis", m.Name)
	}
	return nil
}

// validateRuntime checks that the current channel configuration is legal
// for the synthesized folding.
func (m *Module) validateRuntime() error {
	if m.CurOutC <= 0 || m.CurOutC > m.SynOutC {
		return fmt.Errorf("finn: %s %q: runtime output channels %d out of (0,%d]", m.Kind, m.Name, m.CurOutC, m.SynOutC)
	}
	switch m.Kind {
	case KindSWU:
		if (m.KH*m.KW*m.CurInC)%m.SIMD != 0 {
			return fmt.Errorf("finn: SWU %q: runtime K²·InC %d not divisible by SIMD %d", m.Name, m.KH*m.KW*m.CurInC, m.SIMD)
		}
	case KindMVTUConv:
		if m.CurOutC%m.PE != 0 {
			return fmt.Errorf("finn: MVTU %q: runtime OutC %d not divisible by PE %d", m.Name, m.CurOutC, m.PE)
		}
		if (m.KH*m.KW*m.CurInC)%m.SIMD != 0 {
			return fmt.Errorf("finn: MVTU %q: runtime K²·InC %d not divisible by SIMD %d", m.Name, m.KH*m.KW*m.CurInC, m.SIMD)
		}
	case KindMVTUDense:
		if m.CurOutC%m.PE != 0 {
			return fmt.Errorf("finn: MVTU %q: runtime Out %d not divisible by PE %d", m.Name, m.CurOutC, m.PE)
		}
		if m.CurInC%m.SIMD != 0 {
			return fmt.Errorf("finn: MVTU %q: runtime In %d not divisible by SIMD %d", m.Name, m.CurInC, m.SIMD)
		}
	}
	return nil
}

// CyclesPerFrame returns the module's cycles to process one frame at the
// current channel configuration, including the flexible control overhead.
func (m *Module) CyclesPerFrame() int64 {
	var c int64
	switch m.Kind {
	case KindSWU:
		// Stream-in bound: every input pixel crosses the SWU once per
		// SIMD-fold of its channels.
		folds := int64((m.KH*m.KW*m.CurInC + m.SIMD - 1) / m.SIMD)
		c = int64(m.InH*m.InW) * folds / int64(m.KH*m.KW)
		if c < 1 {
			c = 1
		}
	case KindMVTUConv:
		folds := int64((m.KH*m.KW*m.CurInC + m.SIMD - 1) / m.SIMD)
		nf := int64((m.CurOutC + m.PE - 1) / m.PE)
		c = int64(m.OutH*m.OutW) * folds * nf
		c += int64(float64(c) * mvtuControlOverhead)
	case KindMVTUDense:
		folds := int64((m.CurInC + m.SIMD - 1) / m.SIMD)
		nf := int64((m.CurOutC + m.PE - 1) / m.PE)
		c = folds * nf
		c += int64(float64(c) * mvtuControlOverhead)
	case KindMaxPool:
		// Channel-unrolled: trip count is the pixel count regardless of
		// how many channels are actually fed (paper Fig. 3(b)).
		c = int64(m.InH * m.InW)
	case KindFIFO:
		return 0
	}
	if m.Flexible {
		ov := flexOverheadStream
		if m.Kind == KindMaxPool {
			ov = flexOverheadUnroll
		}
		c = c + int64(float64(c)*ov) + 1
	}
	return c
}

// MACs returns multiply-accumulate operations per frame at the current
// channel configuration (zero for non-compute modules). This drives the
// dynamic-energy model in internal/synth.
func (m *Module) MACs() int64 {
	switch m.Kind {
	case KindMVTUConv:
		return int64(m.OutH*m.OutW) * int64(m.KH*m.KW) * int64(m.CurInC) * int64(m.CurOutC)
	case KindMVTUDense:
		return int64(m.CurInC) * int64(m.CurOutC)
	default:
		return 0
	}
}

// SynWeights returns the number of weight values stored at synthesis time
// (worst case for flexible modules) — the quantity that occupies BRAM and
// LUTRAM.
func (m *Module) SynWeights() int64 {
	switch m.Kind {
	case KindMVTUConv:
		return int64(m.KH*m.KW) * int64(m.SynInC) * int64(m.SynOutC)
	case KindMVTUDense:
		return int64(m.SynInC) * int64(m.SynOutC)
	default:
		return 0
	}
}

// String summarizes the module.
func (m *Module) String() string {
	return fmt.Sprintf("%s[%s in=%d/%d out=%d/%d PE=%d SIMD=%d flex=%v]",
		m.Name, m.Kind, m.CurInC, m.SynInC, m.CurOutC, m.SynOutC, m.PE, m.SIMD, m.Flexible)
}
