package nn

import "repro/internal/tensor"

// Test hooks for the external nn_test package, which builds whole models
// through internal/model and internal/prune (both import nn).

// ConvPathCounts returns how many inference samples the layer served on
// the integer path, and how many of those on the bit planes.
func ConvPathCounts(c *Conv2D) (int8Fwds, bitplaneFwds int) {
	return int(c.intForwards), int(c.bitForwards)
}

// PairedLaneForwardBatch runs the layer's integer inference with its bit
// planes set aside, so every sample goes through the paired-lane kernel:
// the reference the bit-plane path must match bit for bit.
func PairedLaneForwardBatch(c *Conv2D, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if _, _, err := c.int8Weights(c.Weight, c.Quant, c.OutC, c.scaleRowLen()); err != nil {
		return nil, err
	}
	wb, err := c.bitplanes(c.Geom)
	if err != nil {
		return nil, err
	}
	served := c.bitForwards
	c.effWB = nil
	defer func() { c.effWB, c.bitForwards = wb, served }()
	outs, _, err := c.forwardInt8(xs, nil, nil)
	return outs, err
}

// PathCounts returns how many inference samples a Conv2D or Dense served
// on the integer path, how many of those on the bit planes, and how many
// of those from ladder levels (the staged path of Network.ForwardBatch).
func PathCounts(l Layer) (int8Fwds, bitplaneFwds, levelFwds int) {
	var pc pathCounts
	switch l := l.(type) {
	case *Conv2D:
		pc = l.pathCounts
	case *Dense:
		pc = l.pathCounts
	}
	return int(pc.intForwards), int(pc.bitForwards), int(pc.levelForwards)
}

// LayerByLayerBatch is the per-layer loop ForwardBatch's staged path must
// match: every layer over the whole batch on floats, with its batched path
// when it has one.
func LayerByLayerBatch(n *Network, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	cur := append([]*tensor.Tensor(nil), xs...)
	for _, nl := range n.Layers {
		if err := forwardLayer(nl, cur); err != nil {
			return nil, err
		}
	}
	return cur, nil
}
