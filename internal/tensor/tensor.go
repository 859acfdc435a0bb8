// Package tensor provides dense numeric tensors in NCHW layout plus the
// small set of linear-algebra helpers (im2col, GEMM, reductions) that the
// CNN inference and training engine in internal/nn is built on.
//
// Tensors are deliberately simple: a flat []float32 backing store and a
// shape. All layout conventions follow the rest of the repository: image
// tensors are CHW (channels, height, width) per sample, weight tensors for
// convolutions are OIHW (outChannels, inChannels, kernelH, kernelW).
package tensor

import "fmt"

// Tensor is a dense float32 tensor. The zero value is an empty tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a tensor with zero dimensions is a scalar holding
// one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// Shape returns the tensor's dimensions. The caller must not modify the
// returned slice.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape sharing the same backing data.
// The new shape must have the same volume.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape volume %d to %v", len(t.data), shape)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// index converts multi-indices to a flat offset. Callers guarantee the
// number of indices matches the rank.
func (t *Tensor) index(idx ...int) int {
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.index(idx...)] }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// ArgMax returns the flat index of the maximum element (first on ties), or
// -1 for an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		return -1
	}
	best, bi := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
