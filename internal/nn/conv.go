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

	// forward cache
	cols   *tensor.Tensor // im2col of last input (borrowed scratch)
	qw     *tensor.Tensor // quantized weight matrix (OutC, InC*KH*KW)
	inGeom tensor.ConvGeom

	// EffectiveWeights cache, keyed on the weight Param's identity and
	// version so inference-only workloads stop re-quantizing identical
	// weights every image. quantRuns counts actual quantizer passes (for
	// the regression test guarding the cache).
	effW        *tensor.Tensor
	effWOf      *Param
	effWVersion uint64
	quantRuns   int

	// Integer fast-path cache, keyed like effW: the weight grid codes,
	// their scales and, when every code is in {−1, 0, 1}, their bit planes,
	// rebuilt only when the weight version changes. The path counters
	// record which kernel served each inference forward (the int8-path
	// acceptance tests fail if a quantized layer falls back to float, or a
	// 2-bit layer off the bit planes).
	effWQ        *tensor.Int8Matrix
	effWQScales  []float32
	effWB        *tensor.BitplaneWeights // nil when a code is outside {−1, 0, 1}
	effWQOf      *Param
	effWQVersion uint64
	intForwards  int
	bitForwards  int // the subset of intForwards served by the bit planes
	floatFwds    int
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
// repeated inference does not re-quantize; callers must treat the returned
// tensor as read-only.
func (c *Conv2D) EffectiveWeights() (*tensor.Tensor, error) {
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	wm, err := c.Weight.Value.Reshape(c.OutC, k)
	if err != nil {
		return nil, err
	}
	if c.Quant == nil {
		return wm, nil
	}
	if c.effW != nil && c.effWOf == c.Weight && c.effWVersion == c.Weight.Version() {
		return c.effW, nil
	}
	version := c.Weight.Version()
	q := tensor.New(c.OutC, k)
	if c.PerChannel {
		if _, err := c.Quant.QuantizeTensorPerChannel(q.Data(), wm.Data(), k); err != nil {
			return nil, err
		}
	} else if _, err := c.Quant.QuantizeTensor(q.Data(), wm.Data()); err != nil {
		return nil, err
	}
	c.quantRuns++
	c.effW, c.effWOf, c.effWVersion = q, c.Weight, version
	return q, nil
}

// int8Weights returns the weight grid codes, per-row scales and bit planes
// for the integer fast path, cached until the weight Param's identity or
// version changes (the same key as the EffectiveWeights cache). One scale
// is returned for tensor-wide quantization, OutC scales for per-channel.
// The planes are nil unless every code is in {−1, 0, 1}.
func (c *Conv2D) int8Weights() (*tensor.Int8Matrix, []float32, *tensor.BitplaneWeights, error) {
	if c.effWQ != nil && c.effWQOf == c.Weight && c.effWQVersion == c.Weight.Version() {
		return c.effWQ, c.effWQScales, c.effWB, nil
	}
	version := c.Weight.Version()
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	wq := tensor.NewInt8Matrix(c.OutC, k)
	var scales []float32
	if c.PerChannel {
		s, err := c.Quant.QuantizeTensorPerChannelInt8(wq.Data, c.Weight.Value.Data(), k)
		if err != nil {
			return nil, nil, nil, err
		}
		scales = s
	} else {
		s, err := c.Quant.QuantizeTensorInt8(wq.Data, c.Weight.Value.Data())
		if err != nil {
			return nil, nil, nil, err
		}
		scales = []float32{s}
	}
	wb, err := tensor.PackBitplaneWeights(wq, c.Geom)
	if err != nil {
		return nil, nil, nil, err
	}
	c.quantRuns++
	c.effWQ, c.effWQScales, c.effWB, c.effWQOf, c.effWQVersion = wq, scales, wb, c.Weight, version
	return wq, scales, wb, nil
}

// useInt8 reports whether inference forwards take the integer fast path.
func (c *Conv2D) useInt8() bool {
	return c.Quant != nil && c.Quant.Int8Capable() && Int8GEMMEnabled()
}

// Forward implements Layer. Input is CHW; output is (OutC, OutH, OutW).
// Quantized layers serve inference through the integer fast path, as the
// B = 1 case of forwardBatchInt8; training and float layers run the float
// reference: the im2col matrix lives in borrowed scratch — inference
// returns it to the arena before Forward exits, training keeps it until
// Backward finishes.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train && c.useInt8() {
		outs, err := c.forwardBatchInt8([]*tensor.Tensor{x})
		if err != nil {
			return nil, err
		}
		return outs[0], nil
	}
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	if !train {
		c.floatFwds++
	}
	cols := tensor.Borrow(c.Geom.InC*c.Geom.KH*c.Geom.KW, oh*ow)
	if err := tensor.Im2ColInto(cols, x, c.Geom); err != nil {
		tensor.Release(cols)
		return nil, err
	}
	wm, err := c.EffectiveWeights()
	if err != nil {
		tensor.Release(cols)
		return nil, err
	}
	out := tensor.New(c.OutC, oh*ow)
	if err := tensor.GemmInto(out, wm, cols); err != nil {
		tensor.Release(cols)
		return nil, err
	}
	c.addBias(out, oh, ow)
	if train {
		c.cols = cols
		c.qw = wm
		c.inGeom = c.Geom
	} else {
		tensor.Release(cols)
		c.cols, c.qw = nil, nil
	}
	return out.Reshape(c.OutC, oh, ow)
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
	// dX = Col2Im(Wᵀ · g).
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
// be empty), matching an upstream filter prune on the input side. With
// weights, every parameter is gathered once into a tensor of its final
// size, so the copy never aliases the receiver, which is left untouched.
// Without, the copy carries geometry and quantizer only and no
// parameters: enough to map or synthesize it, not to run it. Both forms
// validate the lists alike.
func (c *Conv2D) Pruned(removeOut, removeIn []int, weights bool) (*Conv2D, error) {
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
	if !weights {
		return p, nil
	}
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
