package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Micro-batched inference. ForwardBatch serves B samples through the
// network at once so per-call fixed costs — dispatch, weight-cache lookup,
// scratch borrow/release, int8 weight-panel streaming — are paid once per
// batch instead of once per frame. Conv2D and Dense each have one integer
// and one float forward body, both over a batch; Forward is their B = 1
// case. Dense packs the batch into one GEMM call with n = B columns;
// Conv2D serves the B samples in one integer kernel call: the bit-plane
// kernel (tensor.ConvBitplaneBatchInto) for ternary or binary weights on
// 2-bit activation codes, else shared patch panels of the fused streaming
// im2col (tensor.ConvInt8BatchInto). A batch is bit-identical to B
// sequential Forward(x, false) calls at any worker count: the float GEMM
// adds each output element's products in ascending p for any n, and the
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

// first returns the output of a one-sample batch forward.
func first(outs []*tensor.Tensor, err error) (*tensor.Tensor, error) {
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}
