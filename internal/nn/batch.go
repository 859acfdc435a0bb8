package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Micro-batched inference. ForwardBatch serves B samples through the
// network at once so per-call fixed costs — dispatch, weight-cache lookup,
// scratch borrow/release, weight-plane streaming — are paid once per
// batch instead of once per frame. Conv2D and Dense each have one integer
// and one float forward body, both over a batch; Forward is their B = 1
// case. The integer body serves the B samples in one call of the
// bit-plane kernel (tensor.ConvBitplaneBatchInto), Dense as a 1×1
// convolution over one pixel. Between quantized layers ForwardBatch keeps
// the batch as ladder levels (stage.go): the integer body can take levels
// in and give levels out, so ScaleShift and QuantAct become one threshold
// epilogue and no float activation is allocated. A batch is bit-identical
// to B sequential Forward(x, false) calls at any worker count: the float
// GEMM adds each output element's products in ascending p for any n, the
// integer kernels are exact, and the level path reproduces every float
// the per-layer path would hold.

// BatchLayer is implemented by layers with a dedicated B-sample inference
// path. ForwardBatch must return exactly the tensors that B independent
// Forward(x, false) calls would, bit for bit; layers without a batched win
// simply don't implement it and are served sample-by-sample.
type BatchLayer interface {
	ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// ForwardBatch runs inference on a batch of samples. It never caches
// backward state (inference only) and is bit-identical to calling
// Forward(x, false) on every sample in order.
//
// Between quantized layers it carries level codes (see stage.go): a
// quantized Conv2D or Dense followed by ScaleShift → QuantAct runs as one
// stage that ends in levels, MaxPool2D without padding and Flatten pass
// them on, and the next quantized layer codes them through a table. Every
// other layer, and every layer when SetInt8GEMM(false) is in force, runs
// per layer on floats, with its batched path when it has one and
// per-sample Forward otherwise; so do a stage whose ScaleShift cannot be
// folded (a NaN or infinite γ or β) and one whose output is not finite.
// Either way the outputs, or the error, are the per-layer loop's.
func (n *Network) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: ForwardBatch on empty batch")
	}
	cur := make([]*tensor.Tensor, len(xs))
	copy(cur, xs)
	var lv *levelBatch // the batch, while it is held as levels
	defer func() {
		if lv != nil {
			lv.release()
		}
	}()
	for i := 0; i < len(n.Layers); {
		nl := n.Layers[i]
		if lv != nil {
			if next := passLevels(nl.Layer, lv); next != nil {
				if next != lv {
					lv.release()
				}
				lv, i = next, i+1
				continue
			}
		}
		if sl, ok := nl.Layer.(stageLayer); ok && sl.int8Path() && (lv == nil || sl.takesLevels(lv.shape)) {
			lad := n.ladderAfter(i, sl.outChannels())
			outs, next, err := sl.forwardStage(cur, lv, lad)
			if lv != nil {
				lv.release()
				lv = nil
			}
			if err != nil {
				return nil, fmt.Errorf("nn: layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
			}
			if next != nil {
				// The ScaleShift and QuantAct ran in the epilogue; drop
				// their backward state as their inference Forward would.
				n.Layers[i+1].Layer.(*ScaleShift).x = nil
				n.Layers[i+2].Layer.(*QuantAct).x = nil
				lv, i = next, i+3
				continue
			}
			cur, i = outs, i+1
			continue
		}
		if lv != nil {
			cur = lv.floats()
			lv.release()
			lv = nil
		}
		if err := forwardLayer(nl, cur); err != nil {
			return nil, err
		}
		i++
	}
	if lv != nil {
		cur = lv.floats()
	}
	return cur, nil
}

// forwardLayer runs one layer over the batch cur in place: its batched
// path when it has one, else per-sample Forward.
func forwardLayer(nl *NamedLayer, cur []*tensor.Tensor) error {
	if bl, ok := nl.Layer.(BatchLayer); ok {
		out, err := bl.ForwardBatch(cur)
		if err != nil {
			return fmt.Errorf("nn: layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
		}
		copy(cur, out)
		return nil
	}
	for j, x := range cur {
		out, err := nl.Layer.Forward(x, false)
		if err != nil {
			return fmt.Errorf("nn: layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
		}
		cur[j] = out
	}
	return nil
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
