package nn

import "repro/internal/tensor"

// Test hooks for the external nn_test package, which builds whole models
// through internal/model and internal/prune (both import nn).

// ConvPathCounts returns how many inference samples the layer served on
// the integer path, and how many of those on the bit planes.
func ConvPathCounts(c *Conv2D) (int8Fwds, bitplaneFwds int) {
	return c.intForwards, c.bitForwards
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
	return c.forwardInt8(xs)
}
