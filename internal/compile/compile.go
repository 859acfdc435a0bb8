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
// A program runs the loaded model's own layers: each stage holds a copy
// of an nn layer, taken when the model is compiled or loaded, and calls
// its Forward (nn's integer body by default, its float body under
// nn.SetInt8GEMM(false)); an MVTU stage then replaces each output by its
// ladder level's value. There is no second executor to drift from nn's.
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

	"repro/internal/model"
	"repro/internal/nn"
)

// Thresholds is a per-channel activation ladder on the accumulator scale:
// the float32 edges quant.ActQuantizer.AffineLadder derives from the
// channel's ScaleShift and the exact ladder nn's QuantAct reads.
type Thresholds struct {
	Edges []float32
	Up    bool // false for a negative batch-norm gain
	// ZeroGain marks a channel with γ = 0: every finite accumulator is at
	// β's level, and an infinite one gives NaN (0·∞), as ScaleShift does.
	ZeroGain bool
}

// Code returns the ladder level of float32 accumulator a: the number of
// edges at or below a when Up, at or above it otherwise. It equals the
// level nn's QuantAct gives γ·a+β, bit for bit.
func (t Thresholds) Code(a float32) int {
	n := 0
	for _, e := range t.Edges {
		if t.Up && a >= e || !t.Up && a <= e {
			n++
		}
	}
	return n
}

// stage is one compiled pipeline step: an MVTU (a convolution or dense
// layer with the ladders of the ScaleShift and QuantAct it absorbs), a
// max-pool, or the head (a dense layer without an activation, whose
// accumulators are the logits). layer is a copy taken at compile time,
// so later edits to the model do not reach the program.
type stage struct {
	layer nn.Layer
	// Per-output-channel threshold ladders and the activation value of
	// each ladder level, as QuantAct writes it; nil for pool and head.
	thresholds []Thresholds
	levels     []float32
}

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

	stages []*stage
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
		case *nn.Conv2D:
			ss, qa, consumed, err := absorbActivation(layers, li)
			if err != nil {
				return nil, err
			}
			st := &stage{layer: l.CloneLayer()}
			if st.thresholds, st.levels, err = buildLadders(ss, qa, l.OutC); err != nil {
				return nil, err
			}
			p.stages = append(p.stages, st)
			li += consumed
		case *nn.Dense:
			st := &stage{layer: l.CloneLayer()}
			// Without an activation to absorb, the layer is the head.
			if ss, qa, consumed, err := absorbActivation(layers, li); err == nil {
				if st.thresholds, st.levels, err = buildLadders(ss, qa, l.Out); err != nil {
					return nil, err
				}
				li += consumed
			}
			p.stages = append(p.stages, st)
		case *nn.MaxPool2D:
			p.stages = append(p.stages, &stage{layer: l.CloneLayer()})
		case *nn.Flatten:
			// Stream reinterpretation only: Dense reads any input of its
			// volume.
		case *nn.ScaleShift, *nn.QuantAct, *nn.ReLU:
			return nil, fmt.Errorf("compile: dangling %s not absorbed into a compute stage", layers[li].Layer.Name())
		default:
			return nil, fmt.Errorf("compile: unsupported layer %s", layers[li].Layer.Name())
		}
	}
	return p, nil
}

// absorbActivation scans forward from layer index li+1 for the
// ScaleShift+QuantAct pair that FINN folds into the MVTU, returning the
// ladder builder inputs and how many layers were consumed.
func absorbActivation(layers []*nn.NamedLayer, li int) (ss *nn.ScaleShift, qa *nn.QuantAct, consumed int, err error) {
	j := li + 1
	if j < len(layers) {
		if s, ok := layers[j].Layer.(*nn.ScaleShift); ok {
			ss = s
			j++
		}
	}
	if j < len(layers) {
		if q, ok := layers[j].Layer.(*nn.QuantAct); ok {
			qa = q
			j++
		}
	}
	if qa == nil {
		return nil, nil, 0, fmt.Errorf("compile: compute layer %q has no quantized activation to absorb", layers[li].Layer.Name())
	}
	return ss, qa, j - li - 1, nil
}

// buildLadders folds γ·y+β followed by an activation quantizer into
// per-channel accumulator-scale threshold ladders for outC channels and
// the value of each ladder level.
func buildLadders(ss *nn.ScaleShift, qa *nn.QuantAct, outC int) ([]Thresholds, []float32, error) {
	ladders := make([]Thresholds, outC)
	for c := range ladders {
		gamma, beta := float32(1), float32(0)
		if ss != nil {
			gamma, beta = ss.Gamma.Value.At(c), ss.Beta.Value.At(c)
		}
		edges, up, err := qa.Q.AffineLadder(gamma, beta)
		if err != nil {
			return nil, nil, fmt.Errorf("compile: %s channel %d: %w", ss.Name(), c, err)
		}
		ladders[c] = Thresholds{Edges: edges, Up: up, ZeroGain: gamma == 0}
	}
	levels := make([]float32, qa.Q.Levels()+1)
	for c := range levels {
		levels[c] = qa.Q.LevelValue(c)
	}
	return ladders, levels, nil
}
