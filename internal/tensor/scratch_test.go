package tensor

import "testing"

// TestScratchDoubleReleaseSafe: releasing a tensor twice must not corrupt
// the arena — the second Release sees nil storage and no-ops, so the same
// buffer can never sit in a pool twice (which would let two later Borrows
// alias one another).
func TestScratchDoubleReleaseSafe(t *testing.T) {
	a := Borrow(8, 8)
	a.data[0] = 42
	Release(a)
	if a.data != nil || a.shape != nil {
		t.Fatal("Release did not clear the tensor")
	}
	Release(a) // must be a no-op, not a second pool Put
	Release(nil)

	// Two subsequent borrows of the class must get distinct storage (a
	// double Put would hand the same backing array out twice).
	b := Borrow(8, 8)
	c := Borrow(8, 8)
	if &b.data[0] == &c.data[0] {
		t.Fatal("double release put one buffer into the pool twice")
	}
	b.data[0], c.data[0] = 1, 2
	if b.data[0] != 1 || c.data[0] != 2 {
		t.Fatal("borrowed tensors alias")
	}
	Release(b)
	Release(c)
}

// TestScratchReleaseForeignBuffer: tensors whose storage did not come from
// the arena are accepted and dropped (or, when their capacity happens to
// match a size class exactly, adopted) — never a panic, and the tensor is
// cleared either way.
func TestScratchReleaseForeignBuffer(t *testing.T) {
	// Capacity 100 is not a power-of-two class: dropped silently.
	f := fromSlice(make([]float32, 100), 100)
	Release(f)
	if f.data != nil || f.shape != nil {
		t.Fatal("foreign tensor not cleared")
	}

	// Storage above the largest pooled class: dropped silently too.
	big := &Tensor{shape: []int{1 << (maxScratchBits + 1)}, data: make([]float32, 1<<(maxScratchBits+1))}
	Release(big)
	if big.data != nil {
		t.Fatal("oversized tensor not cleared")
	}

	// A zero-length view never matches a class (classes start at 64).
	empty := &Tensor{shape: []int{0}, data: []float32{}}
	Release(empty)
}

// TestScratchReleasedViewCannotEscape: Reshape shares storage, so a view
// taken before Release sees the recycled buffer. The ownership rule makes
// that the caller's bug; this test pins the defensive part — the released
// tensor itself is unusable (nil data/shape), so accidental reuse fails
// fast instead of silently reading recycled memory.
func TestScratchReleasedViewCannotEscape(t *testing.T) {
	a := Borrow(4, 16)
	v, err := a.Reshape(64)
	if err != nil {
		t.Fatal(err)
	}
	Release(a)
	if a.data != nil {
		t.Fatal("released tensor still holds storage")
	}
	// The view keeps the storage alive (Go GC semantics) but the released
	// owner cannot touch it anymore.
	if len(v.data) != 64 {
		t.Fatal("view length changed")
	}
	Release(v) // returning the view's storage is the documented way out
}
