// Package singleengine models the other FPGA CNN accelerator family the
// paper's Background section contrasts dataflow designs against: a single
// convolutional engine that executes the network layer by layer, loading
// each layer's weights and streaming feature maps through one shared
// PE×SIMD array. One engine serves any layer shape (no per-model
// synthesis), but layers execute sequentially, feature maps bounce through
// on-chip buffers, and weights stream from DRAM between layers — the
// throughput disadvantages that make the paper (and FINN) pick dataflow.
//
// The model shares internal/finn's folding arithmetic so the comparison
// with dataflow accelerators is apples-to-apples: identical cycle costs
// per MAC fold, same clock, same resource coefficients for the compute
// array.
package singleengine

import (
	"fmt"

	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/synth"
)

// Engine is a single-engine accelerator configuration.
type Engine struct {
	Name    string
	PE      int
	SIMD    int
	ClockHz float64
	// DRAMBytesPerSec bounds weight reloading between layers.
	DRAMBytesPerSec float64
}

// Config parameterizes NewEngine: the compute array's size.
type Config struct {
	PE, SIMD int
}

// dramBytesPerSec is the weight-reload bandwidth, a modest DDR4 share.
const dramBytesPerSec = 2e9

// NewEngine builds an engine sized PE×SIMD.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.PE <= 0 || cfg.SIMD <= 0 {
		return nil, fmt.Errorf("singleengine: non-positive array %dx%d", cfg.PE, cfg.SIMD)
	}
	return &Engine{
		Name:    fmt.Sprintf("single-engine-%dx%d", cfg.PE, cfg.SIMD),
		PE:      cfg.PE,
		SIMD:    cfg.SIMD,
		ClockHz: finn.ClockHz, DRAMBytesPerSec: dramBytesPerSec,
	}, nil
}

// LayerCost is the execution profile of one layer on the engine.
type LayerCost struct {
	Name          string
	ComputeCycles int64
	WeightBytes   int64
}

// Schedule computes the per-layer execution costs for a model. Unlike the
// dataflow mapping there are no divisibility constraints: the engine pads
// ragged folds (ceil division), which is exactly why single engines accept
// any model but waste lanes on mismatched shapes.
func (e *Engine) Schedule(m *model.Model) ([]LayerCost, error) {
	if m == nil || m.Net == nil {
		return nil, fmt.Errorf("singleengine: nil model")
	}
	wbits := m.WBits
	if wbits == 0 {
		wbits = 32
	}
	var costs []LayerCost
	for _, nl := range m.Net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			k2 := l.Geom.KH * l.Geom.KW
			folds := ceil(k2*l.Geom.InC, e.SIMD)
			nf := ceil(l.OutC, e.PE)
			costs = append(costs, LayerCost{
				Name:          "conv:" + l.ID,
				ComputeCycles: int64(l.Geom.OutH()*l.Geom.OutW()) * int64(folds) * int64(nf),
				WeightBytes:   int64(k2*l.Geom.InC*l.OutC) * int64(wbits) / 8,
			})
		case *nn.Dense:
			folds := ceil(l.In, e.SIMD)
			nf := ceil(l.Out, e.PE)
			costs = append(costs, LayerCost{
				Name:          "dense:" + l.ID,
				ComputeCycles: int64(folds) * int64(nf),
				WeightBytes:   int64(l.In*l.Out) * int64(wbits) / 8,
			})
		case *nn.MaxPool2D:
			costs = append(costs, LayerCost{
				Name:          "pool:" + l.ID,
				ComputeCycles: int64(l.Geom.InC * l.Geom.OutH() * l.Geom.OutW()),
			})
		default:
			// Channel-wise ops ride along with the preceding layer.
		}
	}
	if len(costs) == 0 {
		return nil, fmt.Errorf("singleengine: model has no compute layers")
	}
	return costs, nil
}

// FramesPerSecond returns the engine's throughput for a model: layers run
// back to back, and each layer's weights must be fetched (overlappable
// with the previous layer's compute, so the per-layer cost is the max of
// compute and weight-fetch time).
func (e *Engine) FramesPerSecond(m *model.Model) (float64, error) {
	costs, err := e.Schedule(m)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, c := range costs {
		compute := float64(c.ComputeCycles) / e.ClockHz
		fetch := float64(c.WeightBytes) / e.DRAMBytesPerSec
		if fetch > compute {
			compute = fetch
		}
		total += compute
	}
	if total <= 0 {
		return 0, fmt.Errorf("singleengine: zero execution time")
	}
	return 1 / total, nil
}

// Resources estimates the engine's fabric cost: one PE×SIMD array plus
// double-buffered feature-map memory sized for the largest layer. Weights
// live in DRAM, not BRAM — the single engine's classic trade.
func (e *Engine) Resources(m *model.Model) (synth.Resources, error) {
	wbits := m.WBits
	if wbits == 0 {
		wbits = 32
	}
	abits := m.ABits
	if abits == 0 {
		abits = 32
	}
	// Compute array mirrors synth's MVTU coefficient.
	lut := 2.2*float64(e.PE*e.SIMD)*float64(wbits*abits+2) + 2000 // plus layer sequencer/DMA
	// Feature-map double buffer: largest activation footprint.
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		return synth.Resources{}, err
	}
	maxElems := m.InC * m.InH * m.InW
	for _, s := range shapes {
		v := 1
		for _, d := range s {
			v *= d
		}
		if v > maxElems {
			maxElems = v
		}
	}
	bufBits := 2 * maxElems * abits
	bram := (bufBits + 36863) / 36864
	return synth.Resources{LUT: int(lut), FF: int(lut * 1.15), BRAM: bram, DSP: 12}, nil
}

func ceil(a, b int) int { return (a + b - 1) / b }
