package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Dense is a fully-connected layer y = W·x + b with optional weight
// quantization. FINN executes dense layers on the same MVTU hardware as
// convolutions, so Dense carries the same quantizer plumbing as Conv2D.
type Dense struct {
	ID   string
	In   int
	Out  int
	Flat bool // accept any input whose volume equals In (flatten on the fly)

	Weight *Param // (Out, In)
	Bias   *Param // (Out) or nil

	Quant *quant.WeightQuantizer

	// Backward state, kept by Forward(train=true).
	x  *tensor.Tensor // the input
	qw *tensor.Tensor // the weights as the forward used them

	weightCache
	pathCounts
}

// DenseConfig collects Dense construction options.
type DenseConfig struct {
	ID      string
	In, Out int
	Bias    bool
	WQuant  *quant.WeightQuantizer
	InitRNG *rand.Rand
}

// NewDense builds a dense layer, He-initializing weights when an RNG is
// supplied. Inputs of any shape are accepted as long as their volume is In.
func NewDense(cfg DenseConfig) (*Dense, error) {
	if cfg.In <= 0 || cfg.Out <= 0 {
		return nil, fmt.Errorf("nn: dense %q has non-positive size %dx%d", cfg.ID, cfg.In, cfg.Out)
	}
	d := &Dense{ID: cfg.ID, In: cfg.In, Out: cfg.Out, Flat: true, Quant: cfg.WQuant}
	w := tensor.New(cfg.Out, cfg.In)
	if cfg.InitRNG != nil {
		std := float32(math.Sqrt(2 / float64(cfg.In)))
		for i := range w.Data() {
			w.Data()[i] = float32(cfg.InitRNG.NormFloat64()) * std
		}
	}
	d.Weight = newParam(cfg.ID+".weight", w)
	if cfg.Bias {
		d.Bias = newParam(cfg.ID+".bias", tensor.New(cfg.Out))
	}
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense:" + d.ID }

// Params implements Layer.
func (d *Dense) Params() []*Param {
	if d.Bias != nil {
		return []*Param{d.Weight, d.Bias}
	}
	return []*Param{d.Weight}
}

// EffectiveWeights returns the weights as they enter the compute (after
// fake quantization), cached until the weight version changes; see
// Conv2D.EffectiveWeights. Callers must treat the result as read-only.
func (d *Dense) EffectiveWeights() (*tensor.Tensor, error) {
	if d.Quant == nil {
		return d.Weight.Value, nil
	}
	return d.floatWeights(d.Weight, d.Quant, d.Out, d.Out*d.In)
}

// Forward implements Layer. It is the B = 1 case of ForwardBatch, except
// that with train set the float body keeps its input and weights for
// Backward.
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	return first(d.forward([]*tensor.Tensor{x}, train))
}

// ForwardBatch implements BatchLayer.
func (d *Dense) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return d.forward(xs, false)
}

// forward serves quantized inference on the integer body and everything
// else, training included, on the float body.
func (d *Dense) forward(xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, error) {
	if !train && useInt8(d.Quant) {
		outs, _, err := d.forwardStage(xs, nil, nil)
		return outs, err
	}
	if err := d.checkInputs(xs); err != nil {
		return nil, err
	}
	if !train {
		d.x, d.qw = nil, nil
	}
	return d.forwardFloat(xs, train)
}

// checkInputs reports the first sample whose volume is not In.
func (d *Dense) checkInputs(xs []*tensor.Tensor) error {
	for _, x := range xs {
		if x.Len() != d.In {
			return fmt.Errorf("nn: dense %q input volume %d, want %d", d.ID, x.Len(), d.In)
		}
	}
	return nil
}

// int8Path, outChannels, takesLevels and forwardStage implement
// stageLayer.
func (d *Dense) int8Path() bool { return useInt8(d.Quant) }

func (d *Dense) outChannels() int { return d.Out }

func (d *Dense) takesLevels(shape []int) bool { return volume(shape) == d.In }

func (d *Dense) forwardStage(xs []*tensor.Tensor, lv *levelBatch, lad *affineLadder) ([]*tensor.Tensor, *levelBatch, error) {
	if lv == nil {
		if err := d.checkInputs(xs); err != nil {
			return nil, nil, err
		}
	}
	d.x, d.qw = nil, nil
	return d.forwardInt8(xs, lv, lad)
}

// pixelGeom is the layer as a 1×1 convolution over one pixel of In
// channels, the geometry its bit planes are packed for.
func (d *Dense) pixelGeom() tensor.ConvGeom {
	return tensor.ConvGeom{InC: d.In, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
}

// forwardFloat is the float reference: the B samples packed as the
// columns of one In×B matrix, and one GEMM of the effective weights against
// it.
func (d *Dense) forwardFloat(xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, error) {
	wm, err := d.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	bsz := len(xs)
	xb := tensor.Borrow(d.In, bsz)
	defer tensor.Release(xb)
	xbd := xb.Data()
	for j, x := range xs {
		for p, v := range x.Data() {
			xbd[p*bsz+j] = v
		}
	}
	ob := tensor.Borrow(d.Out, bsz)
	defer tensor.Release(ob)
	if err := tensor.GemmInto(ob, wm, xb); err != nil {
		return nil, err
	}
	obd := ob.Data()
	outs := make([]*tensor.Tensor, bsz)
	for j := range xs {
		out := tensor.New(d.Out)
		od := out.Data()
		for i := range od {
			od[i] = obd[i*bsz+j]
		}
		addBias(od, d.Bias)
		outs[j] = out
	}
	if train {
		d.x, d.qw = xs[0].Clone(), wm
	} else {
		d.floatFwds += int32(bsz)
	}
	return outs, nil
}

// forwardInt8 is the integer inference body, Conv2D.forwardInt8 for a 1×1
// convolution over one pixel: the same inputs (float samples or levels),
// the same exits, and the same bit-plane kernel on d.pixelGeom(), TFC's
// fc0 among them on the eight planes of its signed image codes. Each
// sample's outputs are rescaled once by weight scale × sample scale.
func (d *Dense) forwardInt8(xs []*tensor.Tensor, lv *levelBatch, lad *affineLadder) ([]*tensor.Tensor, *levelBatch, error) {
	g := d.pixelGeom()
	wb, wScales, err := d.bitplanes(d.Weight, d.Quant, d.Out, d.Out*d.In, g)
	if err != nil {
		return nil, nil, err
	}
	in, _, err := newIntInput(xs, lv, d.In)
	if err != nil {
		return nil, nil, err
	}
	defer in.release()
	dsts, err := in.convolve(wb, wScales, g, d.Out, lad != nil)
	if err != nil {
		return nil, nil, err
	}
	d.count(len(dsts), lv != nil)
	return intExit(dsts, d.Bias, lad, d.Out)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.x == nil {
		return nil, fmt.Errorf("nn: dense %q Backward without Forward(train=true)", d.ID)
	}
	if grad.Len() != d.Out {
		return nil, fmt.Errorf("nn: dense %q gradient volume %d, want %d", d.ID, grad.Len(), d.Out)
	}
	gd := grad.Data()
	xd := d.x.Data()
	wg := d.Weight.grad().Data()
	// Straight-through estimator: gradients pass to the float shadow
	// weights unchanged (see Conv2D.Backward).
	for o := 0; o < d.Out; o++ {
		g := gd[o]
		row := o * d.In
		for i := 0; i < d.In; i++ {
			wg[row+i] += g * xd[i]
		}
	}
	if d.Bias != nil {
		bg := d.Bias.grad().Data()
		for o := 0; o < d.Out; o++ {
			bg[o] += gd[o]
		}
	}
	dx := tensor.New(d.In)
	dxd := dx.Data()
	qwd := d.qw.Data()
	for o := 0; o < d.Out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := o * d.In
		for i := 0; i < d.In; i++ {
			dxd[i] += g * qwd[row+i]
		}
	}
	return dx, nil
}

// NeuronL1Norms returns the ℓ1 norm of each output neuron's weight row —
// the importance measure for fully-connected pruning (the paper's §IV-A1
// covers "neurons, in the case of a fully-connected layer").
func (d *Dense) NeuronL1Norms() []float64 {
	return rowL1Norms(d.Weight.Value.Data(), d.Out)
}

// Pruned returns a copy of the dense layer without the given output
// neurons and input groups (each list ascending and unique; either may be
// empty). removeIn indexes groups of groupSize consecutive inputs — the
// flattened spatial footprint of one upstream channel, or 1 after a dense
// producer. As with Conv2D.Pruned, every parameter is gathered once at its
// final size, and the receiver is left untouched.
func (d *Dense) Pruned(removeOut, removeIn []int, groupSize int) (*Dense, error) {
	if groupSize <= 0 || d.In%groupSize != 0 {
		return nil, fmt.Errorf("nn: dense %q group size %d does not divide In %d", d.ID, groupSize, d.In)
	}
	keepOut, err := keepIndices(d.Out, removeOut)
	if err != nil {
		return nil, fmt.Errorf("nn: dense %q neurons: %w", d.ID, err)
	}
	keepIn, err := keepIndices(d.In/groupSize, removeIn)
	if err != nil {
		return nil, fmt.Errorf("nn: dense %q inputs: %w", d.ID, err)
	}
	p := &Dense{ID: d.ID, In: len(keepIn) * groupSize, Out: len(keepOut), Flat: d.Flat, Quant: d.Quant}
	w := tensor.New(p.Out, p.In)
	gatherRows(w.Data(), d.Weight.Value.Data(), keepOut, d.In, keepIn, groupSize)
	p.Weight = newParam(d.Weight.Name, w)
	p.Bias = gatherParam(d.Bias, keepOut)
	return p, nil
}
