package tensor

import "sync"

// Scratch arena: size-class-bucketed sync.Pools of float32 tensor storage
// and of the integer path's int8, uint8 and uint64 slices. The
// convolution and dense layers in internal/nn borrow their im2col and
// gradient scratch here instead of allocating a fresh tensor per call, so
// steady-state inference runs allocation-free in the compute core.
//
// Ownership rule: whoever Borrows a tensor owns it until it either calls
// Release or hands the tensor to an owner with a longer lifetime (e.g.
// Conv2D keeps its borrowed im2col matrix across Forward(train=true) and
// releases it at the end of Backward). A released tensor must never be
// used again; in particular no view of it (Reshape shares storage) may
// escape to callers.

const (
	minScratchBits = 6  // smallest pooled class: 64 elements
	maxScratchBits = 24 // largest pooled class: 16M elements (64 MiB of float32)
)

// arena is a power-of-two size-class pool of []T scratch: the one
// implementation behind Borrow/Release and the integer-path
// BorrowInt8 and BorrowUint8. Borrowed slices have unspecified contents.
type arena[T any] struct {
	pools [maxScratchBits - minScratchBits + 1]sync.Pool
	// boxes holds emptied *[]T: borrow returns the box its slice came in,
	// release refills one, so a borrow/release pair allocates nothing.
	boxes sync.Pool
}

// scratchClass returns the pool index whose class size (1<<bits) is the
// smallest holding n, or -1 when n is outside the pooled range.
func scratchClass(n int) int {
	if n <= 0 || n > 1<<maxScratchBits {
		return -1
	}
	c := 0
	for n > 1<<(minScratchBits+c) {
		c++
	}
	return c
}

// borrow returns a slice of length n. Lengths outside the pooled size
// classes fall back to make.
func (a *arena[T]) borrow(n int) []T {
	c := scratchClass(n)
	if c < 0 {
		return make([]T, n)
	}
	if p, _ := a.pools[c].Get().(*[]T); p != nil {
		s := *p
		*p = nil
		a.boxes.Put(p)
		return s[:n]
	}
	return make([]T, 1<<(minScratchBits+c))[:n]
}

// release returns s's storage to its class. Storage whose capacity is not
// exactly a class size (not borrowed here) is dropped.
func (a *arena[T]) release(s []T) {
	d := s[:cap(s)]
	if c := scratchClass(len(d)); c >= 0 && len(d) == 1<<(minScratchBits+c) {
		p, _ := a.boxes.Get().(*[]T)
		if p == nil {
			p = new([]T)
		}
		*p = d
		a.pools[c].Put(p)
	}
}

var (
	floatArena  arena[float32]
	int8Arena   arena[int8]
	uint8Arena  arena[uint8]  // internal/nn's ladder levels between layers
	uint64Arena arena[uint64] // the bit-plane convolution's activation planes
)

// Borrow returns a tensor of the given shape backed by pooled storage. The
// contents are unspecified: callers must fully define every element before
// reading (the *Into kernels do — GemmInto and Col2ImInto overwrite dst,
// Im2ColInto zeroes the positions it does not fill). Use New when zeroed
// storage is required.
func Borrow(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return New(shape...) // delegate the panic message
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: floatArena.borrow(n)}
}

// Release returns a borrowed tensor's storage to the arena. The caller must
// not use t (or any view of it) afterwards. Tensors whose storage did not
// come from Borrow are dropped silently, so Release(t) is always safe on a
// tensor the caller exclusively owns. Release(nil) is a no-op.
func Release(t *Tensor) {
	if t == nil {
		return
	}
	d := t.data
	t.data, t.shape = nil, nil
	floatArena.release(d)
}

// BorrowInt8 returns an int8 scratch slice of length n with unspecified
// contents: quantized activations.
func BorrowInt8(n int) []int8 { return int8Arena.borrow(n) }

// ReleaseInt8 returns a slice obtained from BorrowInt8 to the arena. The
// caller must not use s afterwards. Slices of unpooled sizes are dropped.
func ReleaseInt8(s []int8) { int8Arena.release(s) }

// BorrowUint8 returns a uint8 scratch slice of length n with unspecified
// contents: activations held as ladder levels between layers.
func BorrowUint8(n int) []uint8 { return uint8Arena.borrow(n) }

// ReleaseUint8 returns a slice obtained from BorrowUint8 to the arena.
func ReleaseUint8(s []uint8) { uint8Arena.release(s) }
