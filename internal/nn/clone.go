package nn

import "fmt"

// cloneParam deep-copies a parameter; its gradient is allocated on first
// use.
func cloneParam(p *Param) *Param {
	if p == nil {
		return nil
	}
	return newParam(p.Name, p.Value.Clone())
}

// CloneLayer deep-copies the convolution.
func (c *Conv2D) CloneLayer() Layer {
	return &Conv2D{
		ID:         c.ID,
		Geom:       c.Geom,
		OutC:       c.OutC,
		Weight:     cloneParam(c.Weight),
		Bias:       cloneParam(c.Bias),
		Quant:      c.Quant,
		PerChannel: c.PerChannel,
	}
}

// CloneLayer deep-copies the dense layer.
func (d *Dense) CloneLayer() Layer {
	return &Dense{
		ID:     d.ID,
		In:     d.In,
		Out:    d.Out,
		Flat:   d.Flat,
		Weight: cloneParam(d.Weight),
		Bias:   cloneParam(d.Bias),
		Quant:  d.Quant,
	}
}

// CloneLayer deep-copies the pooling layer.
func (m *MaxPool2D) CloneLayer() Layer {
	return &MaxPool2D{ID: m.ID, Geom: m.Geom}
}

// CloneLayer deep-copies the flatten layer.
func (f *Flatten) CloneLayer() Layer { return &Flatten{ID: f.ID} }

// CloneLayer deep-copies the affine layer.
func (s *ScaleShift) CloneLayer() Layer {
	return &ScaleShift{
		ID:       s.ID,
		Channels: s.Channels,
		Gamma:    cloneParam(s.Gamma),
		Beta:     cloneParam(s.Beta),
	}
}

// CloneLayer deep-copies the quantized activation.
func (a *QuantAct) CloneLayer() Layer { return &QuantAct{ID: a.ID, Q: a.Q} }

// CloneLayer deep-copies the ReLU.
func (r *ReLU) CloneLayer() Layer { return &ReLU{ID: r.ID} }

// layerCloner is implemented by every layer in this package.
type layerCloner interface{ CloneLayer() Layer }

// CloneNetwork deep-copies a network: parameters are copied, caches are
// not. It returns an error if a layer does not support cloning.
func CloneNetwork(n *Network) (*Network, error) {
	out := &Network{}
	for _, nl := range n.Layers {
		c, ok := nl.Layer.(layerCloner)
		if !ok {
			return nil, fmt.Errorf("nn: layer %d (%s) does not support cloning", nl.Index, nl.Layer.Name())
		}
		out.Append(c.CloneLayer())
	}
	return out, nil
}

// OutputShapeAfter computes the CHW shape flowing out of each layer for a
// given input shape, without allocating activations. It is used by the
// dataflow mapper and by pruning to find the flatten footprint. The return
// value has one entry per layer.
func OutputShapeAfter(n *Network, inC, inH, inW int) ([][]int, error) {
	cur := []int{inC, inH, inW}
	shapes := make([][]int, 0, len(n.Layers))
	for _, nl := range n.Layers {
		switch l := nl.Layer.(type) {
		case *Conv2D:
			if len(cur) != 3 || cur[0] != l.Geom.InC || cur[1] != l.Geom.InH || cur[2] != l.Geom.InW {
				return nil, fmt.Errorf("nn: shape %v into conv %q wanting %dx%dx%d", cur, l.ID, l.Geom.InC, l.Geom.InH, l.Geom.InW)
			}
			cur = []int{l.OutC, l.Geom.OutH(), l.Geom.OutW()}
		case *MaxPool2D:
			if len(cur) != 3 || cur[0] != l.Geom.InC || cur[1] != l.Geom.InH || cur[2] != l.Geom.InW {
				return nil, fmt.Errorf("nn: shape %v into pool %q wanting %dx%dx%d", cur, l.ID, l.Geom.InC, l.Geom.InH, l.Geom.InW)
			}
			cur = []int{l.Geom.InC, l.Geom.OutH(), l.Geom.OutW()}
		case *Dense:
			if volume(cur) != l.In {
				return nil, fmt.Errorf("nn: volume %d into dense %q wanting %d", volume(cur), l.ID, l.In)
			}
			cur = []int{l.Out}
		case *Flatten:
			cur = []int{volume(cur)}
		default:
			// Channel-wise layers preserve shape.
		}
		shapes = append(shapes, append([]int(nil), cur...))
	}
	return shapes, nil
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
