// Package compile lowers a trained quantized model to a functional
// dataflow program — the software twin of FINN's "CNN Compilation & HLS
// Synthesis" step followed by functional (Verilator-style) simulation.
//
// The lowering mirrors what FINN's streamlining does in hardware:
//
//   - each convolution or hidden dense layer becomes an MVTU stage, and
//     the trailing ScaleShift (folded batch-norm) and QuantAct layers are
//     absorbed into per-channel *threshold ladders* applied directly to
//     its accumulators — the activation code equals the number of
//     thresholds the accumulator crosses, exactly FINN's
//     Matrix-Vector-Threshold semantics;
//   - max-pooling stays a stage of its own (monotone, so pooling codes
//     equals pooling values);
//   - the classifier head stays affine and yields logits.
//
// A program runs the loaded model's own network: it holds a copy taken
// when the model is compiled or loaded, and runs it with
// nn.Network.ForwardBatch, whose staged path is that MVTU — a quantized
// convolution or dense layer ending in the threshold count of the
// ScaleShift and QuantAct it absorbs — on nn's integer body, and the
// per-layer path under nn.SetInt8GEMM(false). Compile checks the
// structure; there is no second executor to drift from nn's.
//
// Programs can be built for the model's own channel counts (a
// Fixed-Pruning accelerator) or for worst-case channel counts (a
// Flexible-Pruning accelerator), which load any pruned version of the
// same initial model — the fast model switch of the paper's Fig. 3
// templates. Worst-case sizing itself (cycles, resources, HLS code)
// belongs to internal/finn. The test suite verifies that both modes
// compute exactly what the nn engine computes, code for code.
package compile

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/nn"
)

// Program is a compiled functional dataflow.
type Program struct {
	Name    string
	InC     int
	InH     int
	InW     int
	Classes int
	// Flexible programs are sized to worst-case channels and accept
	// LoadModel.
	Flexible      bool
	WorstChannels []int
	CurChannels   []int

	net *nn.Network // a copy of the model's, so later edits do not reach it
}

// Compile lowers a model. When flexible is true the program is sized to
// the model's BaseChannels (worst case), which every model it later
// loads must share; otherwise it is sized to the model's own channels.
func Compile(m *model.Model, flexible bool) (*Program, error) {
	if m == nil || m.Net == nil {
		return nil, fmt.Errorf("compile: nil model")
	}
	cur := m.ConvChannels()
	worst := cur
	if flexible {
		worst = m.BaseChannels
		if len(worst) != len(cur) {
			return nil, fmt.Errorf("compile: %d base channels for %d convolutions", len(worst), len(cur))
		}
		for i := range cur {
			if cur[i] > worst[i] {
				return nil, fmt.Errorf("compile: conv %d channels %d exceed worst case %d", i, cur[i], worst[i])
			}
		}
	}
	p := &Program{
		Name:          m.Key(),
		InC:           m.InC,
		InH:           m.InH,
		InW:           m.InW,
		Classes:       m.Classes,
		Flexible:      flexible,
		WorstChannels: append([]int(nil), worst...),
		CurChannels:   append([]int(nil), cur...),
	}

	layers := m.Net.Layers
	for li := 0; li < len(layers); li++ {
		switch l := layers[li].Layer.(type) {
		case *nn.Conv2D, *nn.Dense:
			n, err := absorbActivation(layers, li)
			if err != nil {
				return nil, err
			}
			// Only a dense layer may go without one: it is the head.
			if _, head := l.(*nn.Dense); n == 0 && !head {
				return nil, fmt.Errorf("compile: compute layer %q has no quantized activation to absorb", l.Name())
			}
			li += n
		case *nn.MaxPool2D, *nn.Flatten:
			// A stage of its own, and a stream reinterpretation.
		case *nn.ScaleShift, *nn.QuantAct, *nn.ReLU:
			return nil, fmt.Errorf("compile: dangling %s not absorbed into a compute stage", l.Name())
		default:
			return nil, fmt.Errorf("compile: unsupported layer %s", l.Name())
		}
	}
	net, err := nn.CloneNetwork(m.Net)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	p.net = net
	return p, nil
}

// absorbActivation returns how many layers after layer li form the
// ScaleShift+QuantAct pair, or the lone QuantAct, that FINN folds into
// the MVTU's threshold ladders: 0 when there is none. A NaN or infinite γ
// or β has no ladder (nn would emit NaN or saturate) and is an error.
func absorbActivation(layers []*nn.NamedLayer, li int) (int, error) {
	j := li + 1
	var ss *nn.ScaleShift
	if j < len(layers) {
		if s, ok := layers[j].Layer.(*nn.ScaleShift); ok {
			ss = s
			j++
		}
	}
	if j == len(layers) {
		return 0, nil
	}
	if _, ok := layers[j].Layer.(*nn.QuantAct); !ok {
		return 0, nil
	}
	if ss != nil {
		for c, g := range ss.Gamma.Value.Data() {
			b := ss.Beta.Value.At(c)
			if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) || math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
				return 0, fmt.Errorf("compile: %s channel %d: affine γ=%v β=%v must be finite", ss.Name(), c, g, b)
			}
		}
	}
	return j - li, nil
}
