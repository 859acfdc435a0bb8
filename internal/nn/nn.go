// Package nn implements the quantized convolutional network engine that the
// rest of the repository builds on: layers with forward and backward passes
// (convolution, max-pooling, dense, per-channel affine, quantized
// activations), a sequential network container, and the softmax
// cross-entropy loss.
//
// Conv2D and Dense each compute with one integer and one float forward
// body, both over a batch of samples: quantized inference runs the integer
// body, training and float layers the float one, and Forward is the B = 1
// case of either. Training processes one sample at a time; inference
// additionally offers a micro-batched path (Network.ForwardBatch) that
// serves B samples per kernel call and, between quantized layers, carries
// each activation as the ladder level its QuantAct selects instead of a
// float (see stage.go) — bit-identical to B sequential Forward calls,
// which stay layer by layer on floats as the reference. Layers cache
// forward state for the following backward call, and derived views of
// their weights (see weightCache) and of a ScaleShift folded into the
// activation ladder after it (see ladderCache), so a network must not be
// shared between goroutines without external synchronization.
//
// Quantization follows FINN/Brevitas conventions: weights are
// fake-quantized on the forward pass with straight-through gradients, and
// activations are quantized by internal/quant's multi-threshold-equivalent
// quantizers. The per-channel affine layer (ScaleShift) models batch
// normalization after folding, which is how FINN absorbs BN into its
// threshold ladders.
package nn

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tensor"
)

// Param is a learnable tensor together with its gradient accumulator.
//
// Grad stays nil until the parameter first takes part in training: the
// first Backward or ZeroGrad allocates it, so inference-only copies (every
// pruned model a library sweep evaluates) never pay for it.
//
// Code that mutates Value's backing data in place (the optimizer step,
// checkpoint loading) must call BumpVersion afterwards: layers cache
// derived views of their weights (e.g. the fake-quantized matrix Conv2D
// feeds the GEMM) keyed on the version counter, and a stale version means
// a stale cache. Code that swaps in a whole new Param needs no bump —
// caches are also keyed on Param identity.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor // nil until first used

	version atomic.Uint64
}

// Version returns the weight-version counter used to key derived-weight
// caches.
func (p *Param) Version() uint64 { return p.version.Load() }

// BumpVersion records that Value's contents changed, invalidating any
// cache keyed on the previous version.
func (p *Param) BumpVersion() { p.version.Add(1) }

// newParam wraps value as a parameter; its gradient is allocated on first
// use (see grad).
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value}
}

// grad returns the gradient accumulator, allocating it zeroed at Value's
// shape on first use.
func (p *Param) grad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Shape()...)
	}
	return p.Grad
}

// ZeroGrad clears the gradient accumulator, allocating it on first use.
func (p *Param) ZeroGrad() { p.grad().Zero() }

// Layer is one stage of a sequential network.
type Layer interface {
	// Name returns a stable human-readable identifier.
	Name() string
	// Forward computes the layer output. When train is true the layer
	// caches whatever it needs for Backward.
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients along the way. It must be preceded by Forward(train=true).
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's learnable parameters (possibly none).
	Params() []*Param
}

// Network is an ordered sequence of layers.
type Network struct {
	Layers []*NamedLayer
}

// NamedLayer pairs a layer with its position, giving stable identities for
// pruning and dataflow mapping.
type NamedLayer struct {
	Index int
	Layer Layer
}

// NewNetwork builds a network from layers in order.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{}
	for _, l := range layers {
		n.Append(l)
	}
	return n
}

// Append adds a layer at the end.
func (n *Network) Append(l Layer) {
	n.Layers = append(n.Layers, &NamedLayer{Index: len(n.Layers), Layer: l})
}

// Forward runs all layers in order.
func (n *Network) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	cur := x
	for _, nl := range n.Layers {
		out, err := nl.Layer.Forward(cur, train)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
		}
		cur = out
	}
	return cur, nil
}

// Backward runs all layers in reverse, starting from the loss gradient.
func (n *Network) Backward(grad *tensor.Tensor) error {
	cur := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		nl := n.Layers[i]
		g, err := nl.Layer.Backward(cur)
		if err != nil {
			return fmt.Errorf("nn: backward layer %d (%s): %w", nl.Index, nl.Layer.Name(), err)
		}
		cur = g
	}
	return nil
}

// Params returns every learnable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, nl := range n.Layers {
		ps = append(ps, nl.Layer.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Predict runs inference and returns the argmax class of the final output.
func (n *Network) Predict(x *tensor.Tensor) (int, error) {
	out, err := n.Forward(x, false)
	if err != nil {
		return 0, err
	}
	return out.ArgMax(), nil
}

// ParamCount returns the total number of learnable scalar parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// Convs returns the network's convolution layers in order. Pruning and the
// dataflow mapper both key off this list.
func (n *Network) Convs() []*Conv2D {
	var cs []*Conv2D
	for _, nl := range n.Layers {
		if c, ok := nl.Layer.(*Conv2D); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// Denses returns the network's dense layers in order.
func (n *Network) Denses() []*Dense {
	var ds []*Dense
	for _, nl := range n.Layers {
		if d, ok := nl.Layer.(*Dense); ok {
			ds = append(ds, d)
		}
	}
	return ds
}
