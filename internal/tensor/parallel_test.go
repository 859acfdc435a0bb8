package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The reference implementations below are verbatim copies of the serial
// kernels this package shipped before the blocked/parallel rewrite. The
// property tests assert the new kernels are *exactly* (bit-for-bit) equal
// to them on randomized shapes, with the parallel path forced on.

func refGemm(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	c := New(m, n)
	ad, bd, cd := a.data, b.data, c.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

func refGemmTransA(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

func refGemmTransB(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			crow[j] = s
		}
	}
	return c
}

func refIm2Col(in *Tensor, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	out := New(g.InC*g.KH*g.KW, cols)
	od, id := out.data, in.data
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				rowBase := ((c*g.KH+kh)*g.KW + kw) * cols
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= g.InW {
							continue
						}
						od[rowBase+oy*ow+ox] = id[(c*g.InH+iy)*g.InW+ix]
					}
				}
			}
		}
	}
	return out
}

func refCol2Im(cols *Tensor, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	wantCols := oh * ow
	out := New(g.InC, g.InH, g.InW)
	od, cd := out.data, cols.data
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				rowBase := ((c*g.KH+kh)*g.KW + kw) * wantCols
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= g.InW {
							continue
						}
						od[(c*g.InH+iy)*g.InW+ix] += cd[rowBase+oy*ow+ox]
					}
				}
			}
		}
	}
	return out
}

// forceParallel drops the serial-fast-path threshold to one op and raises
// the worker cap so even tiny kernels fan out, restoring both on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	prevGrain := SetParallelGrain(1)
	prevWorkers := SetMaxWorkers(4)
	t.Cleanup(func() {
		SetParallelGrain(prevGrain)
		SetMaxWorkers(prevWorkers)
	})
}

// randTensor fills a tensor with values in [-1, 1], with a sprinkling of
// exact zeros so the skip-on-zero paths are exercised.
func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	tt := New(shape...)
	for i := range tt.data {
		if rng.Intn(4) == 0 {
			continue // keep an exact zero
		}
		tt.data[i] = float32(rng.Float64()*2 - 1)
	}
	return tt
}

func TestGemmVariantsMatchSerialReference(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(37)
		k := 1 + rng.Intn(37)
		n := 1 + rng.Intn(37)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := New(m, n)
		if err := GemmInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		if want := refGemm(a, b); !equal(got, want) {
			t.Fatalf("GemmInto differs from serial reference at m=%d k=%d n=%d", m, k, n)
		}

		at := randTensor(rng, k, m)
		if err := GemmTransAInto(got, at, b); err != nil {
			t.Fatal(err)
		}
		if want := refGemmTransA(at, b); !equal(got, want) {
			t.Fatalf("GemmTransAInto differs from serial reference at m=%d k=%d n=%d", m, k, n)
		}

		bt := randTensor(rng, n, k)
		if err := GemmTransBInto(got, a, bt); err != nil {
			t.Fatal(err)
		}
		if want := refGemmTransB(a, bt); !equal(got, want) {
			t.Fatalf("GemmTransBInto differs from serial reference at m=%d k=%d n=%d", m, k, n)
		}
	}
}

// TestGemmIntoOverwritesDirtyScratch checks the Into variants fully define
// dst even when it arrives full of garbage (the scratch-arena contract).
func TestGemmIntoOverwritesDirtyScratch(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(11))
	a := randTensor(rng, 9, 14)
	b := randTensor(rng, 14, 6)
	dirty := func(m, n int) *Tensor {
		d := New(m, n)
		d.Fill(999)
		return d
	}
	dst := dirty(9, 6)
	if err := GemmInto(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if !equal(dst, refGemm(a, b)) {
		t.Fatal("GemmInto left stale data in dst")
	}
	at := randTensor(rng, 14, 9)
	dst = dirty(9, 6)
	if err := GemmTransAInto(dst, at, b); err != nil {
		t.Fatal(err)
	}
	if !equal(dst, refGemmTransA(at, b)) {
		t.Fatal("GemmTransAInto left stale data in dst")
	}
	bt := randTensor(rng, 6, 14)
	dst = dirty(9, 6)
	if err := GemmTransBInto(dst, a, bt); err != nil {
		t.Fatal(err)
	}
	if !equal(dst, refGemmTransB(a, bt)) {
		t.Fatal("GemmTransBInto left stale data in dst")
	}
}

func TestGemmIntoShapeErrors(t *testing.T) {
	a := New(3, 4)
	b := New(4, 5)
	for _, dst := range []*Tensor{New(3, 4), New(5, 3), New(15)} {
		if err := GemmInto(dst, a, b); err == nil {
			t.Fatalf("GemmInto accepted dst %v", dst.Shape())
		}
	}
	if err := GemmTransAInto(New(3, 3), a, b); err == nil {
		t.Fatal("GemmTransAInto accepted wrong dst")
	}
	if err := GemmTransBInto(New(3, 3), a, New(5, 4)); err == nil {
		t.Fatal("GemmTransBInto accepted wrong dst")
	}
}

func TestIm2ColCol2ImMatchSerialReference(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		g := ConvGeom{
			InC:     1 + rng.Intn(6),
			InH:     1 + rng.Intn(12),
			InW:     1 + rng.Intn(12),
			KH:      1 + rng.Intn(4),
			KW:      1 + rng.Intn(4),
			StrideH: 1 + rng.Intn(3),
			StrideW: 1 + rng.Intn(3),
			PadH:    rng.Intn(3),
			PadW:    rng.Intn(3),
		}
		if g.Validate() != nil {
			continue // kernel larger than padded input; skip this draw
		}
		in := randTensor(rng, g.InC, g.InH, g.InW)
		got := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		if err := Im2ColInto(got, in, g); err != nil {
			t.Fatal(err)
		}
		if want := refIm2Col(in, g); !equal(got, want) {
			t.Fatalf("Im2ColInto differs from serial reference for %+v", g)
		}
		// Scatter random per-window gradients back and compare.
		grad := randTensor(rng, g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		gotIm := New(g.InC, g.InH, g.InW)
		if err := Col2ImInto(gotIm, grad, g); err != nil {
			t.Fatal(err)
		}
		if want := refCol2Im(grad, g); !equal(gotIm, want) {
			t.Fatalf("Col2ImInto differs from serial reference for %+v", g)
		}
		// Into variants must overwrite dirty scratch completely.
		dirtyCols := Borrow(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		dirtyCols.Fill(999)
		if err := Im2ColInto(dirtyCols, in, g); err != nil {
			t.Fatal(err)
		}
		if !equal(dirtyCols, got) {
			t.Fatalf("Im2ColInto left stale data for %+v", g)
		}
		Release(dirtyCols)
		dirtyIm := Borrow(g.InC, g.InH, g.InW)
		dirtyIm.Fill(999)
		if err := Col2ImInto(dirtyIm, grad, g); err != nil {
			t.Fatal(err)
		}
		if !equal(dirtyIm, gotIm) {
			t.Fatalf("Col2ImInto left stale data for %+v", g)
		}
		Release(dirtyIm)
	}
}

// TestIm2ColOneByOneKernel pins the 1×1-kernel edge case: im2col reduces to
// the identity and the GEMM path must reproduce a plain channel mix.
func TestIm2ColOneByOneKernel(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(17))
	g := ConvGeom{InC: 3, InH: 5, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	in := randTensor(rng, 3, 5, 4)
	cols := New(3, 20)
	if err := Im2ColInto(cols, in, g); err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Data() {
		if cols.Data()[i] != v {
			t.Fatalf("1x1 im2col is not the identity at %d", i)
		}
	}
}

// TestConcurrentGemmSharedPool exercises many goroutines issuing parallel
// GEMMs against the shared worker pool (run under -race in verify).
func TestConcurrentGemmSharedPool(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(19))
	a := randTensor(rng, 33, 29)
	b := randTensor(rng, 29, 31)
	want := refGemm(a, b)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				got := New(33, 31)
				if err := GemmInto(got, a, b); err != nil {
					errs <- err
					return
				}
				if !equal(got, want) {
					errs <- fmt.Errorf("concurrent Gemm diverged on iteration %d", it)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSetMaxWorkersRoundTrip(t *testing.T) {
	prev := SetMaxWorkers(3)
	if got := maxWorkers.Get(); got != 3 {
		t.Fatalf("worker cap = %d, want 3", got)
	}
	if back := SetMaxWorkers(prev); back != 3 {
		t.Fatalf("SetMaxWorkers returned %d, want 3", back)
	}
	// n <= 0 resets to NumCPU, which is always >= 1.
	old := SetMaxWorkers(0)
	if maxWorkers.Get() < 1 {
		t.Fatal("reset cap below 1")
	}
	SetMaxWorkers(old)
}

func TestScratchBorrowRelease(t *testing.T) {
	bt := Borrow(7, 9)
	if bt.Rank() != 2 || bt.Dim(0) != 7 || bt.Dim(1) != 9 || bt.Len() != 63 {
		t.Fatalf("Borrow shape %v len %d", bt.Shape(), bt.Len())
	}
	bt.Fill(1)
	Release(bt)
	// Reuse must deliver a correctly-shaped tensor even if the class is
	// bigger than the request.
	again := Borrow(70)
	if again.Len() != 70 {
		t.Fatalf("Borrow len %d, want 70", again.Len())
	}
	Release(again)
	// Tensors from outside the arena are dropped silently.
	Release(New(3))
	Release(nil)
	// Oversized requests fall back to plain allocation.
	if huge := Borrow(1 << 25); huge.Len() != 1<<25 {
		t.Fatal("oversized Borrow wrong length")
	}
}

func TestScratchClassBounds(t *testing.T) {
	if c := scratchClass(1); c != 0 {
		t.Fatalf("class(1) = %d", c)
	}
	if c := scratchClass(64); c != 0 {
		t.Fatalf("class(64) = %d", c)
	}
	if c := scratchClass(65); c != 1 {
		t.Fatalf("class(65) = %d", c)
	}
	if c := scratchClass(0); c != -1 {
		t.Fatalf("class(0) = %d", c)
	}
	if c := scratchClass(1<<24 + 1); c != -1 {
		t.Fatalf("class(2^24+1) = %d", c)
	}
}
