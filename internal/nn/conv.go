package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer with OIHW weights and optional weight
// quantization. It is the software twin of a FINN SWU+MVTU pair.
type Conv2D struct {
	ID   string
	Geom tensor.ConvGeom // input geometry; OutC filters of KHxKW over InC
	OutC int

	Weight *Param // shape (OutC, InC, KH, KW)
	Bias   *Param // shape (OutC); nil if disabled

	Quant *quant.WeightQuantizer // nil = float weights
	// PerChannel quantizes each filter with its own adaptive scale
	// (FINN's per-channel weight scaling) instead of one tensor-wide
	// scale.
	PerChannel bool

	// Backward state, kept by Forward(train=true).
	cols   *tensor.Tensor // im2col of the input (borrowed scratch)
	qw     *tensor.Tensor // the weights as the forward used them
	inGeom tensor.ConvGeom

	weightCache
	pathCounts
}

// ConvConfig collects Conv2D construction options.
type ConvConfig struct {
	ID         string
	Geom       tensor.ConvGeom
	OutC       int
	Bias       bool
	WQuant     *quant.WeightQuantizer
	PerChannel bool       // per-filter quantization scales
	InitRNG    *rand.Rand // nil = zero weights
}

// NewConv2D builds a convolution layer, He-initializing weights when an RNG
// is supplied.
func NewConv2D(cfg ConvConfig) (*Conv2D, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.OutC <= 0 {
		return nil, fmt.Errorf("nn: conv %q has non-positive OutC %d", cfg.ID, cfg.OutC)
	}
	c := &Conv2D{ID: cfg.ID, Geom: cfg.Geom, OutC: cfg.OutC, Quant: cfg.WQuant, PerChannel: cfg.PerChannel}
	w := tensor.New(cfg.OutC, cfg.Geom.InC, cfg.Geom.KH, cfg.Geom.KW)
	if cfg.InitRNG != nil {
		fanIn := cfg.Geom.InC * cfg.Geom.KH * cfg.Geom.KW
		std := float32(math.Sqrt(2 / float64(fanIn)))
		for i := range w.Data() {
			w.Data()[i] = float32(cfg.InitRNG.NormFloat64()) * std
		}
	}
	c.Weight = newParam(cfg.ID+".weight", w)
	if cfg.Bias {
		c.Bias = newParam(cfg.ID+".bias", tensor.New(cfg.OutC))
	}
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d:" + c.ID }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// EffectiveWeights returns the weights as they enter the compute: the
// (OutC, InC·KH·KW) matrix after fake quantization (per-channel when
// configured), or the raw weights for float layers. The dataflow compiler
// consumes exactly this view. For quantized layers the result is cached
// until the weight Param's version changes (see Param.BumpVersion), so
// repeated forwards do not re-quantize; callers must treat the returned
// tensor as read-only.
func (c *Conv2D) EffectiveWeights() (*tensor.Tensor, error) {
	if c.Quant == nil {
		return c.Weight.Value.Reshape(c.OutC, c.Geom.InC*c.Geom.KH*c.Geom.KW)
	}
	return c.floatWeights(c.Weight, c.Quant, c.OutC, c.scaleRowLen())
}

// scaleRowLen returns how many weights share one quantization scale: one
// filter's with PerChannel, else all of them.
func (c *Conv2D) scaleRowLen() int {
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	if c.PerChannel {
		return k
	}
	return c.OutC * k
}

// Forward implements Layer. Input is CHW; output is (OutC, OutH, OutW).
// It is the B = 1 case of ForwardBatch, except that with train set the
// float body keeps its im2col scratch and weights for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	return first(c.forward([]*tensor.Tensor{x}, train))
}

// ForwardBatch implements BatchLayer.
func (c *Conv2D) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return c.forward(xs, false)
}

// forward serves quantized inference on the integer body and everything
// else, training included, on the float body.
func (c *Conv2D) forward(xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, error) {
	if !train && useInt8(c.Quant) {
		outs, _, err := c.forwardStage(xs, nil, nil)
		return outs, err
	}
	if err := c.checkInputs(xs); err != nil {
		return nil, err
	}
	if !train {
		c.cols, c.qw = nil, nil
	}
	return c.forwardFloat(xs, train)
}

// int8Path, outChannels, takesLevels and forwardStage implement
// stageLayer.
func (c *Conv2D) int8Path() bool { return useInt8(c.Quant) }

func (c *Conv2D) outChannels() int { return c.OutC }

func (c *Conv2D) takesLevels(shape []int) bool {
	return len(shape) == 3 && shape[0] == c.Geom.InC && shape[1] == c.Geom.InH && shape[2] == c.Geom.InW
}

func (c *Conv2D) forwardStage(xs []*tensor.Tensor, lv *levelBatch, lad *affineLadder) ([]*tensor.Tensor, *levelBatch, error) {
	if lv == nil {
		if err := c.checkInputs(xs); err != nil {
			return nil, nil, err
		}
	}
	c.cols, c.qw = nil, nil
	return c.forwardInt8(xs, lv, lad)
}

// checkInputs reports the first sample whose shape does not match the
// layer's input geometry.
func (c *Conv2D) checkInputs(xs []*tensor.Tensor) error {
	for _, x := range xs {
		if x.Rank() != 3 || x.Dim(0) != c.Geom.InC || x.Dim(1) != c.Geom.InH || x.Dim(2) != c.Geom.InW {
			return fmt.Errorf("nn: conv %q input %v does not match geometry %dx%dx%d",
				c.ID, x.Shape(), c.Geom.InC, c.Geom.InH, c.Geom.InW)
		}
	}
	return nil
}

// forwardFloat is the float reference: per sample, an im2col into one
// scratch matrix borrowed for the whole batch, then a GEMM against the
// effective weights. With train (B = 1) the scratch stays borrowed until
// Backward finishes.
func (c *Conv2D) forwardFloat(xs []*tensor.Tensor, train bool) ([]*tensor.Tensor, error) {
	wm, err := c.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	cols := tensor.Borrow(c.Geom.InC*c.Geom.KH*c.Geom.KW, oh*ow)
	outs := make([]*tensor.Tensor, len(xs))
	for j, x := range xs {
		out := tensor.New(c.OutC, oh*ow)
		err := tensor.Im2ColInto(cols, x, c.Geom)
		if err == nil {
			err = tensor.GemmInto(out, wm, cols)
		}
		if err == nil {
			outs[j], err = c.finish(out)
		}
		if err != nil {
			tensor.Release(cols)
			return nil, err
		}
	}
	if train {
		c.cols, c.qw, c.inGeom = cols, wm, c.Geom
	} else {
		tensor.Release(cols)
		c.floatFwds += int32(len(xs))
	}
	return outs, nil
}

// forwardInt8 is the integer inference body. Weights are the cached int8
// grid codes, packed as bit planes; the input is the float samples xs,
// coded dynamically to int8 per sample, or the levels lv of a staged
// batch, coded through their tables (see intInput). The bit-plane kernel,
// tensor.ConvBitplaneBatchInto, computes the exact int32 products,
// rescaled once by weight scale × sample scale: each sample's codes on the
// planes the kernel's rule gives them, two for the 2-bit activations of
// CNV's conv1–conv5, seven or eight (their two's complement) for conv0's
// image codes, against one weight plane for W1 and W2 grids and one per
// magnitude bit for wider ones. An inner dimension past the planes' bound
// is an error. Without lad the body adds the bias and returns floats; with
// the ladder of the ScaleShift → QuantAct that follows it returns their
// levels instead (see intExit).
func (c *Conv2D) forwardInt8(xs []*tensor.Tensor, lv *levelBatch, lad *affineLadder) ([]*tensor.Tensor, *levelBatch, error) {
	wb, wScales, err := c.bitplanes(c.Weight, c.Quant, c.OutC, c.scaleRowLen(), c.Geom)
	if err != nil {
		return nil, nil, err
	}
	in, j, err := newIntInput(xs, lv, c.Geom.InC*c.Geom.InH*c.Geom.InW)
	if err != nil {
		return nil, nil, fmt.Errorf("nn: conv %q sample %d: %w", c.ID, j, err)
	}
	defer in.release()
	dsts, err := in.convolve(wb, wScales, c.Geom, c.OutC, lad != nil)
	if err != nil {
		return nil, nil, err
	}
	c.count(len(dsts), lv != nil)
	return intExit(dsts, c.Bias, lad, c.OutC, c.Geom.OutH(), c.Geom.OutW())
}

// finish adds the per-filter bias to a rescaled (OutC, OutH·OutW) output
// and returns it as (OutC, OutH, OutW).
func (c *Conv2D) finish(out *tensor.Tensor) (*tensor.Tensor, error) {
	addBias(out.Data(), c.Bias)
	return out.Reshape(c.OutC, c.Geom.OutH(), c.Geom.OutW())
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.cols == nil {
		return nil, fmt.Errorf("nn: conv %q Backward without Forward(train=true)", c.ID)
	}
	oh, ow := c.inGeom.OutH(), c.inGeom.OutW()
	g, err := grad.Reshape(c.OutC, oh*ow)
	if err != nil {
		return nil, err
	}
	k := c.inGeom.InC * c.inGeom.KH * c.inGeom.KW
	// dW = g · colsᵀ, with STE through the quantizer.
	dW := tensor.Borrow(c.OutC, k)
	if err := tensor.GemmTransBInto(dW, g, c.cols); err != nil {
		tensor.Release(dW)
		return nil, err
	}
	wg, err := c.Weight.grad().Reshape(c.OutC, k)
	if err != nil {
		tensor.Release(dW)
		return nil, err
	}
	// Straight-through estimator: the gradient of the fake-quantized
	// forward passes to the float shadow weights unchanged (the adaptive
	// per-tensor scale means no weight sits outside the grid range).
	for i, gv := range dW.Data() {
		wg.Data()[i] += gv
	}
	tensor.Release(dW)
	if c.Bias != nil {
		bg := c.Bias.grad().Data()
		gd := g.Data()
		for o := 0; o < c.OutC; o++ {
			var s float32
			for _, v := range gd[o*oh*ow : (o+1)*oh*ow] {
				s += v
			}
			bg[o] += s
		}
	}
	// dX = Col2ImInto(Wᵀ · g).
	dCols := tensor.Borrow(k, oh*ow)
	if err := tensor.GemmTransAInto(dCols, c.qw, g); err != nil {
		tensor.Release(dCols)
		return nil, err
	}
	dx := tensor.New(c.inGeom.InC, c.inGeom.InH, c.inGeom.InW)
	err = tensor.Col2ImInto(dx, dCols, c.inGeom)
	tensor.Release(dCols)
	// The im2col scratch borrowed by Forward(train=true) is done now.
	tensor.Release(c.cols)
	c.cols, c.qw = nil, nil
	if err != nil {
		return nil, err
	}
	return dx, nil
}

// Pruned returns a copy of the convolution without the given output
// filters and input channels (each list ascending and unique; either may
// be empty), matching an upstream filter prune on the input side. Every
// parameter is gathered once into a tensor of its final size, so the copy
// never aliases the receiver, which is left untouched.
func (c *Conv2D) Pruned(removeOut, removeIn []int) (*Conv2D, error) {
	keepOut, err := keepIndices(c.OutC, removeOut)
	if err != nil {
		return nil, fmt.Errorf("nn: conv %q: %w", c.ID, err)
	}
	keepIn, err := keepIndices(c.Geom.InC, removeIn)
	if err != nil {
		return nil, fmt.Errorf("nn: conv %q inputs: %w", c.ID, err)
	}
	p := &Conv2D{ID: c.ID, Geom: c.Geom, OutC: len(keepOut), Quant: c.Quant, PerChannel: c.PerChannel}
	p.Geom.InC = len(keepIn)
	kk := c.Geom.KH * c.Geom.KW
	w := tensor.New(len(keepOut), len(keepIn), c.Geom.KH, c.Geom.KW)
	gatherRows(w.Data(), c.Weight.Value.Data(), keepOut, c.Geom.InC*kk, keepIn, kk)
	p.Weight = newParam(c.Weight.Name, w)
	p.Bias = gatherParam(c.Bias, keepOut)
	return p, nil
}

// FilterL1Norms returns the ℓ1 norm of each output filter, the importance
// measure dataflow-aware pruning sorts on.
func (c *Conv2D) FilterL1Norms() []float64 {
	return rowL1Norms(c.Weight.Value.Data(), c.OutC)
}

// rowL1Norms returns the ℓ1 norm of each of the rows of the row-major
// matrix w.
func rowL1Norms(w []float32, rows int) []float64 {
	k := len(w) / rows
	norms := make([]float64, rows)
	for o := range norms {
		var s float64
		for _, v := range w[o*k : (o+1)*k] {
			s += math.Abs(float64(v))
		}
		norms[o] = s
	}
	return norms
}

// gatherRows copies the rows keepRows of the row-major matrix src, whose
// rows are srcCols wide, into dst, narrowing each row to the column groups
// keepGroups (ascending) of group consecutive columns. Consecutive kept
// groups move in one copy. dst must hold exactly
// len(keepRows)·len(keepGroups)·group values.
func gatherRows(dst, src []float32, keepRows []int, srcCols int, keepGroups []int, group int) {
	// runs holds [first, end) column spans of consecutive kept groups.
	var runs [][2]int
	for _, g := range keepGroups {
		if n := len(runs); n > 0 && runs[n-1][1] == g*group {
			runs[n-1][1] += group
		} else {
			runs = append(runs, [2]int{g * group, (g + 1) * group})
		}
	}
	n := 0
	for _, r := range keepRows {
		row := src[r*srcCols : (r+1)*srcCols]
		for _, run := range runs {
			n += copy(dst[n:], row[run[0]:run[1]])
		}
	}
}

// gatherParam returns a new parameter holding the listed elements of the
// vector parameter p, or nil when p is nil.
func gatherParam(p *Param, keep []int) *Param {
	if p == nil {
		return nil
	}
	v := tensor.New(len(keep))
	vd, pd := v.Data(), p.Value.Data()
	for ni, oi := range keep {
		vd[ni] = pd[oi]
	}
	return newParam(p.Name, v)
}

// keepIndices validates remove (strictly ascending, in range, not removing
// everything) and returns the complement.
func keepIndices(n int, remove []int) ([]int, error) {
	if len(remove) >= n {
		return nil, fmt.Errorf("cannot remove %d of %d channels", len(remove), n)
	}
	keep := make([]int, 0, n-len(remove))
	next := 0 // first index not yet kept or removed
	for _, r := range remove {
		if r < next {
			return nil, fmt.Errorf("remove indices must be strictly ascending, got %v", remove)
		}
		if r >= n {
			return nil, fmt.Errorf("remove index %d out of range [0,%d)", r, n)
		}
		for ; next < r; next++ {
			keep = append(keep, next)
		}
		next = r + 1
	}
	for ; next < n; next++ {
		keep = append(keep, next)
	}
	return keep, nil
}
