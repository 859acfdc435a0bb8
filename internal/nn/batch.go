package nn

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Micro-batched inference. ForwardBatch serves B samples through the
// network at once so per-call fixed costs — dispatch, weight-cache lookup,
// scratch borrow/release, int8 weight-panel streaming — are paid once per
// batch instead of once per frame. Dense layers pack the batch into one
// GEMM call (n = B columns, escaping the n == 1 matvec path); Conv2D
// serves the B samples in one integer kernel call: the bit-plane kernel
// (tensor.ConvBitplaneBatchInto) for ternary or binary weights on 2-bit
// activation codes, else shared patch panels of the fused streaming im2col
// (tensor.ConvInt8BatchInto). Both paths are bit-identical to B sequential
// Forward(x, false) calls at any worker count: the float GEMM accumulates
// every output element in ascending-p order regardless of n, and the
// integer kernels are exact.

// BatchLayer is implemented by layers with a dedicated B-sample inference
// path. ForwardBatch must return exactly the tensors that B independent
// Forward(x, false) calls would, bit for bit; layers without a batched win
// simply don't implement it and are served sample-by-sample.
type BatchLayer interface {
	ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// ForwardBatch runs inference on a batch of samples, using each layer's
// batched path when it has one and falling back to per-sample Forward
// otherwise. It never caches backward state (inference only) and is
// bit-identical to calling Forward(x, false) on every sample in order.
func (n *Network) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: ForwardBatch on empty batch")
	}
	cur := make([]*tensor.Tensor, len(xs))
	copy(cur, xs)
	for _, nl := range n.Layers {
		if bl, ok := nl.Layer.(BatchLayer); ok {
			out, err := bl.ForwardBatch(cur)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
			}
			cur = out
			continue
		}
		for j, x := range cur {
			out, err := nl.Layer.Forward(x, false)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
			}
			cur[j] = out
		}
	}
	return cur, nil
}

// PredictBatch runs batched inference and returns the argmax class per
// sample.
func (n *Network) PredictBatch(xs []*tensor.Tensor) ([]int, error) {
	outs, err := n.ForwardBatch(xs)
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(outs))
	for i, out := range outs {
		classes[i] = out.ArgMax()
	}
	return classes, nil
}

// ForwardBatch implements BatchLayer: one GEMM over an In×B packed matrix
// instead of B matrix-vector products.
func (d *Dense) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 1 {
		out, err := d.Forward(xs[0], false)
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}
	for _, x := range xs {
		if x.Len() != d.In {
			return nil, fmt.Errorf("nn: dense %q input volume %d, want %d", d.ID, x.Len(), d.In)
		}
	}
	if d.useInt8() {
		return d.forwardBatchInt8(xs)
	}
	d.floatFwds += len(xs)
	wm, err := d.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	bsz := len(xs)
	xb := tensor.Borrow(d.In, bsz)
	defer tensor.Release(xb)
	xbd := xb.Data()
	for j, x := range xs {
		xd := x.Data()
		for p := 0; p < d.In; p++ {
			xbd[p*bsz+j] = xd[p]
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
		for i := 0; i < d.Out; i++ {
			od[i] = obd[i*bsz+j]
		}
		if d.Bias != nil {
			for i := range od {
				od[i] += d.Bias.Value.Data()[i]
			}
		}
		outs[j] = out
	}
	d.x, d.qw = nil, nil
	return outs, nil
}

// forwardBatchInt8 packs B dynamically-quantized samples into one int8
// GEMM with n = B columns, where register blocking and cache-blocked
// panels pay off (the single-sample path degenerates to a matvec). Each
// sample keeps its own activation scale, applied in the same
// rescale-then-bias order as forwardInt8.
func (d *Dense) forwardBatchInt8(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	wq, wScale, err := d.int8Weights()
	if err != nil {
		return nil, err
	}
	bsz := len(xs)
	xq := tensor.BorrowInt8(d.In)
	defer tensor.ReleaseInt8(xq)
	xb := tensor.BorrowInt8(d.In * bsz)
	defer tensor.ReleaseInt8(xb)
	scales := make([]float32, bsz)
	for j, x := range xs {
		sx, err := quant.QuantizeSymmetricInt8(xq, x.Data())
		if err != nil {
			return nil, err
		}
		for p := 0; p < d.In; p++ {
			xb[p*bsz+j] = xq[p]
		}
		scales[j] = wScale * sx
	}
	acc := tensor.BorrowInt32(d.Out * bsz)
	defer tensor.ReleaseInt32(acc)
	if err := tensor.GemmInt8Into(acc, wq, &tensor.Int8Matrix{Rows: d.In, Cols: bsz, Data: xb}); err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, bsz)
	for j := range xs {
		out := tensor.New(d.Out)
		od := out.Data()
		s := scales[j]
		for i := 0; i < d.Out; i++ {
			od[i] = float32(acc[i*bsz+j]) * s
		}
		if d.Bias != nil {
			for i := range od {
				od[i] += d.Bias.Value.Data()[i]
			}
		}
		outs[j] = out
	}
	d.intForwards += bsz
	d.x, d.qw = nil, nil
	return outs, nil
}

// ForwardBatch implements BatchLayer: on the int8 path the whole batch
// goes through one kernel call; the float path loops over samples.
func (c *Conv2D) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if c.useInt8() {
		return c.forwardBatchInt8(xs)
	}
	if len(xs) == 1 {
		out, err := c.Forward(xs[0], false)
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}
	if err := c.checkInputs(xs); err != nil {
		return nil, err
	}
	c.floatFwds += len(xs)
	wm, err := c.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	// Float batch: one im2col scratch borrowed for the whole batch; the
	// per-sample GEMM order matches Forward exactly.
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	cols := tensor.Borrow(c.Geom.InC*c.Geom.KH*c.Geom.KW, oh*ow)
	defer tensor.Release(cols)
	outs := make([]*tensor.Tensor, len(xs))
	for j, x := range xs {
		if err := tensor.Im2ColInto(cols, x, c.Geom); err != nil {
			return nil, err
		}
		out := tensor.New(c.OutC, oh*ow)
		if err := tensor.GemmInto(out, wm, cols); err != nil {
			return nil, err
		}
		c.addBias(out, oh, ow)
		shaped, err := out.Reshape(c.OutC, oh, ow)
		if err != nil {
			return nil, err
		}
		outs[j] = shaped
	}
	c.cols, c.qw = nil, nil
	return outs, nil
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

// forwardBatchInt8 is the integer inference path of Forward (B = 1) and
// ForwardBatch. Weights are the cached int8 grid codes, every sample is
// quantized dynamically to int8, and one of two exact kernels computes the
// int32 products, rescaled once by weight scale × sample scale:
//
//   - tensor.ConvBitplaneBatchInto when the layer has bit planes (every
//     weight code in {−1, 0, 1}) and every sample's codes decompose into
//     two planes, as the 2-bit activations of CNV's conv1–conv5 do;
//   - tensor.ConvInt8BatchInto, the batch-packed paired-lane kernel,
//     otherwise: an image input, a wider weight grid, or one sample with
//     more than two planes' worth of codes sends the whole batch here.
//
// Both give the same int32 sums and the same rescale expression, so the
// choice never changes a bit of the output.
func (c *Conv2D) forwardBatchInt8(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := c.checkInputs(xs); err != nil {
		return nil, err
	}
	wq, wScales, wb, err := c.int8Weights()
	if err != nil {
		return nil, err
	}
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	bsz := len(xs)
	vol := c.Geom.InC * c.Geom.InH * c.Geom.InW
	xqBuf := tensor.BorrowInt8(bsz * vol)
	defer tensor.ReleaseInt8(xqBuf)
	xqs := make([][]int8, bsz)
	scaleBuf := make([]float32, bsz*len(wScales))
	outScales := make([][]float32, bsz)
	dsts := make([]*tensor.Tensor, bsz)
	for j, x := range xs {
		xq := xqBuf[j*vol : (j+1)*vol]
		xqs[j] = xq
		sx, err := quant.QuantizeSymmetricInt8(xq, x.Data())
		if err != nil {
			return nil, fmt.Errorf("nn: conv %q sample %d: %w", c.ID, j, err)
		}
		row := scaleBuf[j*len(wScales) : (j+1)*len(wScales)]
		for i, s := range wScales {
			row[i] = s * sx
		}
		outScales[j] = row
		dsts[j] = tensor.New(c.OutC, oh*ow)
	}
	served := false
	if wb != nil {
		if served, err = tensor.ConvBitplaneBatchInto(dsts, wb, xqs, c.Geom, outScales); err != nil {
			return nil, err
		}
	}
	if served {
		c.bitForwards += bsz
	} else if err := tensor.ConvInt8BatchInto(dsts, wq, xqs, c.Geom, outScales); err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, bsz)
	for j, out := range dsts {
		c.addBias(out, oh, ow)
		shaped, err := out.Reshape(c.OutC, oh, ow)
		if err != nil {
			return nil, err
		}
		outs[j] = shaped
	}
	c.intForwards += bsz
	c.cols, c.qw = nil, nil
	return outs, nil
}

// addBias adds the per-filter bias rows in the order both forward paths
// use (after the rescale, before the reshape).
func (c *Conv2D) addBias(out *tensor.Tensor, oh, ow int) {
	if c.Bias == nil {
		return
	}
	od := out.Data()
	for o := 0; o < c.OutC; o++ {
		b := c.Bias.Value.Data()[o]
		row := od[o*oh*ow : (o+1)*oh*ow]
		for i := range row {
			row[i] += b
		}
	}
}
