// Package compile lowers a trained quantized model to a functional
// dataflow program — the software twin of FINN's "CNN Compilation & HLS
// Synthesis" step followed by functional (Verilator-style) simulation.
//
// The lowering mirrors what FINN's streamlining does in hardware:
//
//   - each convolution becomes an SWU stage (window generation) feeding an
//     MVTU stage whose weights are the layer's quantized values;
//   - the trailing ScaleShift (folded batch-norm) and QuantAct layers are
//     absorbed into per-channel *threshold ladders* applied directly to the
//     MVTU accumulators — the activation code equals the number of
//     thresholds the accumulator crosses, exactly FINN's
//     Matrix-Vector-Threshold semantics;
//   - max-pooling operates on activation codes (monotone, so pooling codes
//     equals pooling values);
//   - the classifier head stays affine and yields logits.
//
// Programs can be built for the model's own channel counts (a
// Fixed-Pruning accelerator) or for worst-case channel counts with the
// actual model's channels configured at run time (a Flexible-Pruning
// accelerator): weights of absent channels are zero-padded and the
// execution loops are guarded on the runtime channel count, reproducing
// the paper's Fig. 3 template semantics. The test suite verifies both
// modes compute exactly what the nn engine computes.
package compile

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Thresholds is a per-channel activation ladder on the accumulator scale:
// the float32 edges quant.ActQuantizer.AffineLadder derives from the
// channel's ScaleShift and the exact ladder nn's QuantAct reads.
type Thresholds struct {
	Edges []float32
	Up    bool // false for a negative batch-norm gain
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

// Stage kinds.
type stageKind int

const (
	stageConv stageKind = iota
	stagePool
	stageDense
	stageHead
)

// stage is one compiled pipeline step.
type stage struct {
	kind stageKind
	name string

	// Geometry at worst case (synthesis) and currently configured.
	geom    tensor.ConvGeom // conv/pool window over worst-case channels
	synInC  int
	synOutC int
	curInC  int
	curOutC int

	// Conv/dense parameters, worst-case sized and zero-padded: weights
	// indexed [out][in*k²] (conv) or [out][in] (dense).
	weights [][]float64
	bias    []float64

	// Per-output-channel threshold ladders (nil for head/pool).
	thresholds []Thresholds
	// levels maps a ladder level to the activation value the next
	// stage's weights expect, as QuantAct writes it.
	levels []float64

	// footprint multiplier for dense stages fed by conv channels.
	inFoot int
}

// Program is a compiled functional dataflow.
type Program struct {
	Name    string
	InC     int
	InH     int
	InW     int
	Classes int
	// Flexible programs are sized to worst-case channels and accept
	// SetChannels.
	Flexible      bool
	WorstChannels []int
	CurChannels   []int

	stages []*stage
}

// Compile lowers a model. When flexible is true the program is sized to
// the model's BaseChannels (worst case) with the current weights
// zero-padded into the worst-case arrays; otherwise it is sized to the
// model's own channels.
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
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		return nil, err
	}
	convIdx := -1
	prevConv := -1
	for li := 0; li < len(layers); li++ {
		switch l := layers[li].Layer.(type) {
		case *nn.Conv2D:
			convIdx++
			st, consumed, err := compileConvBlock(l, layers, li, convIdx, prevConv, worst, flexible)
			if err != nil {
				return nil, err
			}
			p.stages = append(p.stages, st)
			li += consumed
			prevConv = convIdx
		case *nn.MaxPool2D:
			synC := l.Geom.InC
			if flexible && prevConv >= 0 {
				synC = worst[prevConv]
			}
			g := l.Geom
			g.InC = synC
			p.stages = append(p.stages, &stage{
				kind: stagePool, name: fmt.Sprintf("pool@%d", li),
				geom:   g,
				synInC: synC, synOutC: synC,
				curInC: l.Geom.InC, curOutC: l.Geom.InC,
			})
		case *nn.Dense:
			st, consumed, err := compileDenseBlock(l, layers, li, prevConv, worst, flexible, shapes)
			if err != nil {
				return nil, err
			}
			p.stages = append(p.stages, st)
			li += consumed
			prevConv = -1
		case *nn.Flatten:
			// Stream reinterpretation only.
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
// per-channel accumulator-scale threshold ladders and the value of each
// ladder level. Padded channels beyond outC get the identity affine.
func buildLadders(ss *nn.ScaleShift, qa *nn.QuantAct, outC, synOutC int) ([]Thresholds, []float64, error) {
	ladders := make([]Thresholds, synOutC)
	for c := range ladders {
		gamma, beta := float32(1), float32(0)
		if ss != nil && c < outC {
			gamma, beta = ss.Gamma.Value.At(c), ss.Beta.Value.At(c)
		}
		edges, up, err := qa.Q.AffineLadder(gamma, beta)
		if err != nil {
			return nil, nil, fmt.Errorf("compile: %s channel %d: %w", ss.Name(), c, err)
		}
		ladders[c] = Thresholds{Edges: edges, Up: up}
	}
	levels := make([]float64, qa.Q.Levels()+1)
	for c := range levels {
		levels[c] = float64(qa.Q.LevelValue(c))
	}
	return ladders, levels, nil
}

// compileConvBlock lowers conv (+ScaleShift+QuantAct) into one MVTU stage.
func compileConvBlock(l *nn.Conv2D, layers []*nn.NamedLayer, li, convIdx, prevConv int, worst []int, flexible bool) (*stage, int, error) {
	ss, qa, consumed, err := absorbActivation(layers, li)
	if err != nil {
		return nil, 0, err
	}
	synIn := l.Geom.InC
	if flexible && prevConv >= 0 {
		synIn = worst[prevConv]
	}
	synOut := l.OutC
	if flexible {
		synOut = worst[convIdx]
	}
	k2 := l.Geom.KH * l.Geom.KW
	// Weights exactly as the forward pass computes them (including
	// per-channel quantization scales when configured).
	q, err := l.EffectiveWeights()
	if err != nil {
		return nil, 0, err
	}
	// Zero-padded worst-case weight array, laid out [out][in*k²] with the
	// *worst-case* input stride so runtime channel guards skip pad lanes.
	weights := make([][]float64, synOut)
	for o := range weights {
		weights[o] = make([]float64, synIn*k2)
	}
	for o := 0; o < l.OutC; o++ {
		for ci := 0; ci < l.Geom.InC; ci++ {
			for kk := 0; kk < k2; kk++ {
				weights[o][ci*k2+kk] = float64(q.At(o, ci*k2+kk))
			}
		}
	}
	var bias []float64
	if l.Bias != nil {
		bias = make([]float64, synOut)
		for o := 0; o < l.OutC; o++ {
			bias[o] = float64(l.Bias.Value.At(o))
		}
	}
	ladders, levels, err := buildLadders(ss, qa, l.OutC, synOut)
	if err != nil {
		return nil, 0, err
	}
	g := l.Geom
	g.InC = synIn
	return &stage{
		kind: stageConv, name: "mvtu:" + l.ID,
		geom:   g,
		synInC: synIn, synOutC: synOut,
		curInC: l.Geom.InC, curOutC: l.OutC,
		weights: weights, bias: bias,
		thresholds: ladders, levels: levels,
	}, consumed, nil
}

// compileDenseBlock lowers dense (+ScaleShift+QuantAct) or the bare head.
func compileDenseBlock(l *nn.Dense, layers []*nn.NamedLayer, li, prevConv int, worst []int, flexible bool, shapes [][]int) (*stage, int, error) {
	foot := 1
	if prevConv >= 0 {
		// Spatial footprint of the stream entering this dense layer: the
		// last rank-3 shape upstream.
		for lj := li - 1; lj >= 0; lj-- {
			if len(shapes[lj]) == 3 {
				foot = shapes[lj][1] * shapes[lj][2]
				break
			}
		}
	}
	synIn := l.In
	curIn := l.In
	if flexible && prevConv >= 0 {
		synIn = worst[prevConv] * foot
	}
	// Head (no trailing activation) vs hidden dense.
	var ss *nn.ScaleShift
	var qa *nn.QuantAct
	consumed := 0
	kind := stageHead
	if li+1 < len(layers) {
		if s, q, c, err := absorbActivation(layers, li); err == nil {
			ss, qa, consumed = s, q, c
			kind = stageDense
		}
	}
	q, err := l.EffectiveWeights()
	if err != nil {
		return nil, 0, err
	}
	weights := make([][]float64, l.Out)
	for o := range weights {
		weights[o] = make([]float64, synIn)
	}
	// Pad per channel group: input element ci*foot+f of the current model
	// maps to the same channel index in the worst-case layout.
	for o := 0; o < l.Out; o++ {
		for i := 0; i < l.In; i++ {
			weights[o][i] = float64(q.At(o, i))
		}
	}
	var bias []float64
	if l.Bias != nil {
		bias = make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			bias[o] = float64(l.Bias.Value.At(o))
		}
	}
	st := &stage{
		kind: kind, name: "fc:" + l.ID,
		synInC: synIn, synOutC: l.Out,
		curInC: curIn, curOutC: l.Out,
		weights: weights, bias: bias,
		inFoot: foot,
	}
	if kind == stageDense {
		if st.thresholds, st.levels, err = buildLadders(ss, qa, l.Out, l.Out); err != nil {
			return nil, 0, err
		}
	}
	return st, consumed, nil
}
