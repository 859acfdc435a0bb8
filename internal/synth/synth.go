// Package synth models the "CNN Compilation & HLS Synthesis" stage of
// AdaFlow's Library Generator: it turns a finn.Dataflow into an
// Accelerator with FPGA resource usage (LUT/FF/BRAM/DSP), a power model,
// and an FPGA reconfiguration-time model.
//
// No Vivado exists here (see DESIGN.md, substitutions); instead each
// module's resources follow FINN's structural cost drivers — the PE×SIMD
// compute array, weight storage split across LUTRAM and BRAM, stream
// control — with coefficients calibrated so the paper-scale CNV lands on
// the paper's reported *ratios*:
//
//   - Flexible-Pruning ≈ 1.92× the LUTs of the original FINN accelerator,
//     with no BRAM increase (weights and feature maps only shrink);
//   - Fixed-Pruning LUT reductions from ≈1.5 % (5 % pruning) to ≈46 %
//     (85 % pruning), driven by the quadratic weight shrinkage;
//   - total power ≈1.07 W for the busy CNVW2A2 baseline at 100 MHz with
//     pruned fixed accelerators slightly below 1 W at partial load;
//   - a full-device reconfiguration of ≈145 ms on the ZCU104 (the paper's
//     Scenario-1 run reports five reconfigurations ≈ 725 ms).
package synth

import (
	"fmt"
	"time"

	"repro/internal/finn"
)

// Resources is an FPGA utilization vector.
type Resources struct {
	LUT  int
	FF   int
	BRAM int // BRAM36 blocks
	DSP  int
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.LUT + o.LUT, r.FF + o.FF, r.BRAM + o.BRAM, r.DSP + o.DSP}
}

// Device describes the FPGA fabric budget. ZCU104 carries an XCZU7EV.
type Device struct {
	Name string
	Resources
	// BitstreamBytes is the full configuration bitstream size, which sets
	// the reconfiguration time over the configuration port.
	BitstreamBytes int64
	// ConfigPortBytesPerSec is the PCAP throughput.
	ConfigPortBytesPerSec float64
}

// ZCU104 is the paper's evaluation board.
var ZCU104 = Device{
	Name:                  "ZCU104 (XCZU7EV)",
	Resources:             Resources{LUT: 230400, FF: 460800, BRAM: 312, DSP: 1728},
	BitstreamBytes:        29_000_000,
	ConfigPortBytesPerSec: 200e6,
}

// ReconfigTime returns the time to load a full bitstream.
func (d Device) ReconfigTime() time.Duration {
	if d.ConfigPortBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(d.BitstreamBytes) / d.ConfigPortBytesPerSec * float64(time.Second))
}

// Fits reports whether the utilization fits the device.
func (d Device) Fits(r Resources) bool {
	return r.LUT <= d.LUT && r.FF <= d.FF && r.BRAM <= d.BRAM && r.DSP <= d.DSP
}

// Calibration constants. Each is a structural cost driver with a
// coefficient fitted to the paper's reported ratios (see package comment).
const (
	lutPerComputeLane = 2.2    // LUTs per PE·SIMD lane per (wbits·abits+2)
	lutPerWeightBit   = 0.0065 // LUTRAM share of weight storage
	lutCtrlPerModule  = 250.0  // counters, FSM, AXI-stream handshake
	lutSWUBase        = 200.0
	lutSWUPerLane     = 2.0 // per SIMD·abit
	lutPoolBase       = 50.0
	lutPoolPerChan    = 3.0 // channel-unrolled comparators per abit
	lutFIFO           = 50.0

	ffPerLUT = 1.15 // pipeline registers track LUT usage

	bramBitsPerBlock = 36864.0
	fifoLUTRAMBits   = 18432.0 // FIFOs below this stay in LUTRAM

	dspBase = 12 // scaling/misc; quantized MACs use LUTs, not DSPs

	// FlexibleLUTFactor is the measured LUT overhead of the
	// runtime-controllable templates (paper §VI-A: 1.92×).
	FlexibleLUTFactor = 1.92
	flexibleFFFactor  = 1.55

	// Power model: P = staticW + clockWPerLUT·LUT + E_inf·processedFPS.
	staticW      = 0.30
	clockWPerLUT = 6.0e-6
	// Per-inference dynamic energy: E_inf = eFrameBase + eMAC·MACs·bitFactor.
	eFrameBase = 1.0e-4 // J: streaming, thresholds, I/O
	eMAC       = 1.73e-11
	// Flexible templates toggle extra guard logic per frame.
	flexEnergyFactor = 1.10
)

// Accelerator is a synthesized bitstream artifact: a dataflow plus its
// resource footprint and power/reconfiguration models.
type Accelerator struct {
	Dataflow *finn.Dataflow
	Device   Device
	Res      Resources
	// PerModule maps module names to their resource share (diagnostics
	// and the Fig. 5(a) breakdown).
	PerModule map[string]Resources
}

// Synthesize computes the resource footprint of a dataflow on a device.
func Synthesize(df *finn.Dataflow, dev Device) (*Accelerator, error) {
	if df == nil || len(df.Modules) == 0 {
		return nil, fmt.Errorf("synth: empty dataflow")
	}
	acc := &Accelerator{Dataflow: df, Device: dev, PerModule: make(map[string]Resources, len(df.Modules))}
	for _, m := range df.Modules {
		r := moduleResources(m)
		acc.PerModule[m.Name] = r
		acc.Res = acc.Res.Add(r)
	}
	acc.Res = acc.Res.Add(overhead())
	if !dev.Fits(acc.Res) {
		return nil, fmt.Errorf("synth: %s does not fit %s: need %+v, have %+v",
			df.Name, dev.Name, acc.Res, dev.Resources)
	}
	return acc, nil
}

// overhead is the per-accelerator resource cost added on top of the sum of
// module resources (scaling/misc DSP logic).
func overhead() Resources { return Resources{DSP: dspBase} }

// moduleResources models one module's fabric cost at synthesis-time
// geometry (worst case for flexible templates).
func moduleResources(m *finn.Module) Resources {
	var lut, ff float64
	var bram int
	switch m.Kind {
	case finn.KindSWU:
		lut = lutSWUBase + lutSWUPerLane*float64(m.SIMD*m.ABits)
	case finn.KindMVTUConv, finn.KindMVTUDense:
		lut = lutPerComputeLane*float64(m.PE*m.SIMD)*float64(m.WBits*m.ABits+2) + lutCtrlPerModule
		weightBits := float64(m.SynWeights()) * float64(m.WBits)
		lut += lutPerWeightBit * weightBits
		// Weight memory: distributed across PE-private BRAM stacks.
		perPE := weightBits / float64(m.PE)
		bram = m.PE * int(ceilDiv64(int64(perPE), int64(bramBitsPerBlock)))
	case finn.KindMaxPool:
		lut = lutPoolBase + lutPoolPerChan*float64(m.SynInC*m.ABits)
	case finn.KindFIFO:
		lut = lutFIFO
		// Depth (stored in PE) × stream width decides BRAM vs LUTRAM.
		bits := float64(m.PE) * float64(m.SynOutC*m.ABits)
		if bits > fifoLUTRAMBits {
			bram = int(ceilDiv64(int64(bits), int64(bramBitsPerBlock)))
		} else {
			lut += bits / 64
		}
	}
	if m.Flexible && m.Kind != finn.KindFIFO {
		// Runtime-controllable templates replicate guard logic across the
		// unrolled structure (FIFOs are already worst-case sized and gain
		// nothing).
		ff = lut * flexibleFFFactor * ffPerLUT
		lut *= FlexibleLUTFactor
	} else {
		ff = lut * ffPerLUT
	}
	return Resources{LUT: int(lut), FF: int(ff), BRAM: bram}
}

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// bitFactor scales dynamic MAC energy with operand precision.
func bitFactor(wbits, abits int) float64 {
	if wbits <= 0 {
		wbits = 32
	}
	if abits <= 0 {
		abits = 32
	}
	return float64(wbits+abits) / 4
}

// EnergyPerInference returns the dynamic energy of one inference at the
// accelerator's current channel configuration, in joules.
func (a *Accelerator) EnergyPerInference() float64 {
	var bf, macs float64
	for _, m := range a.Dataflow.Modules {
		macs += float64(m.MACs())
		if bf == 0 && (m.Kind == finn.KindMVTUConv || m.Kind == finn.KindMVTUDense) {
			bf = bitFactor(m.WBits, m.ABits)
		}
	}
	e := eFrameBase + eMAC*macs*bf
	if a.Dataflow.Flexible {
		e *= flexEnergyFactor
	}
	return e
}

// IdlePower returns static plus clock-tree power in watts.
func (a *Accelerator) IdlePower() float64 {
	return staticW + clockWPerLUT*float64(a.Res.LUT)
}

// PowerCurve is the clamp-linear power model of an accelerator at one
// channel configuration: idle power plus dynamic energy per inference
// times the processed frame rate, with the rate clamped to [0, CapFPS]
// (the pipeline cannot switch faster than full utilization). The library
// generator tabulates one per entry, so serving reads power from the
// table instead of walking the dataflow.
type PowerCurve struct {
	IdleW         float64 // static plus clock-tree power, watts
	EnergyPerInfJ float64 // dynamic energy per inference, joules
	CapFPS        float64 // frame rate at full utilization
}

// At returns total power in watts at the given processed frame rate. The
// receiver is a pointer so a method value bound to a tabulated curve
// captures only its address.
func (c *PowerCurve) At(processedFPS float64) float64 {
	if processedFPS < 0 {
		processedFPS = 0
	}
	if processedFPS > c.CapFPS {
		processedFPS = c.CapFPS
	}
	return c.IdleW + c.EnergyPerInfJ*processedFPS
}

// TotalEnergyPerInference returns total (static + dynamic) energy per
// inference at full utilization, or 0 for a curve with no capacity.
func (c *PowerCurve) TotalEnergyPerInference() float64 {
	if c.CapFPS <= 0 {
		return 0
	}
	return c.At(c.CapFPS) / c.CapFPS
}

// Curve returns the accelerator's power curve at its current channel
// configuration.
func (a *Accelerator) Curve() PowerCurve {
	return PowerCurve{IdleW: a.IdlePower(), EnergyPerInfJ: a.EnergyPerInference(), CapFPS: a.Dataflow.FPS()}
}

// TotalEnergyPerInference returns total (static + dynamic) energy per
// inference at full utilization — the Fig. 5(b)/(c) metric.
func (a *Accelerator) TotalEnergyPerInference() float64 {
	c := a.Curve()
	return c.TotalEnergyPerInference()
}
