package nn

import "repro/internal/tensor"

// Test hooks for the external nn_test package, which builds whole models
// through internal/model and internal/prune (both import nn).

// PathCounts returns how many inference samples a Conv2D or Dense served
// on the integer body, and how many of those from ladder levels (the
// staged path of Network.ForwardBatch).
func PathCounts(l Layer) (int8Fwds, levelFwds int) {
	var pc pathCounts
	switch l := l.(type) {
	case *Conv2D:
		pc = l.pathCounts
	case *Dense:
		pc = l.pathCounts
	}
	return int(pc.intForwards), int(pc.levelForwards)
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

// SetBias sets the bias of a Conv2D or Dense to b, one value per output
// channel, giving the layer a bias parameter when it has none.
func SetBias(l Layer, b []float32) {
	v := tensor.New(len(b))
	copy(v.Data(), b)
	switch l := l.(type) {
	case *Conv2D:
		l.Bias = newParam(l.ID+".bias", v)
	case *Dense:
		l.Bias = newParam(l.ID+".bias", v)
	}
}
