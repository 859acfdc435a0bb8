package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fromSlice wraps data, not copied, in a tensor of the given shape. It
// panics unless len(data) is the shape's volume.
func fromSlice(data []float32, shape ...int) *Tensor {
	if n := New(shape...).Len(); len(data) != n {
		panic(fmt.Sprintf("fromSlice: %d elements for shape %v", len(data), shape))
	}
	return &Tensor{shape: slices.Clone(shape), data: data}
}

// set stores v at the given multi-index.
func set(t *Tensor, v float32, idx ...int) { t.data[t.index(idx...)] = v }

// add adds o to t element-wise; the shapes must match.
func add(t, o *Tensor) {
	for i, v := range o.data {
		t.data[i] += v
	}
}

// equal reports whether two tensors have identical shape and elements.
func equal(a, b *Tensor) bool {
	return slices.Equal(a.shape, b.shape) && slices.Equal(a.data, b.data)
}

// allClose reports whether two tensors have identical shape and all
// elements within tol of each other.
func allClose(a, b *Tensor, tol float64) bool {
	if !slices.Equal(a.shape, b.shape) {
		return false
	}
	for i := range a.data {
		if math.Abs(float64(a.data[i])-float64(b.data[i])) > tol {
			return false
		}
	}
	return true
}

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if tt.Rank() != 3 || tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("bad shape %v", tt.Shape())
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Len() != 1 || s.Rank() != 0 {
		t.Fatalf("scalar: len=%d rank=%d", s.Len(), s.Rank())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4, 5)
	set(tt, 42, 2, 1, 3)
	if got := tt.At(2, 1, 3); got != 42 {
		t.Fatalf("At = %v, want 42", got)
	}
	// Row-major offset: ((2*4)+1)*5+3 = 48.
	if tt.Data()[48] != 42 {
		t.Fatalf("flat layout wrong: %v", tt.Data()[45:50])
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	set(b, 99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshape(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape view broken: %v", b.At(2, 1))
	}
	set(b, -1, 0, 0)
	if a.At(0, 0) != -1 {
		t.Fatal("Reshape must share storage")
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Fatal("expected volume mismatch error")
	}
}

func TestReductions(t *testing.T) {
	a := fromSlice([]float32{-1, 3, -2, 3}, 4)
	if a.ArgMax() != 1 {
		t.Fatalf("ArgMax = %v", a.ArgMax())
	}
	empty := New(0)
	if empty.ArgMax() != -1 {
		t.Fatalf("empty ArgMax = %v", empty.ArgMax())
	}
}

func TestEqualAllClose(t *testing.T) {
	a := fromSlice([]float32{1, 2}, 2)
	b := fromSlice([]float32{1, 2.0005}, 2)
	if equal(a, b) {
		t.Fatal("Equal on different values")
	}
	if !allClose(a, b, 1e-3) {
		t.Fatal("allClose rejected within tolerance")
	}
	if allClose(a, b, 1e-5) {
		t.Fatal("allClose accepted outside tolerance")
	}
	c := fromSlice([]float32{1, 2}, 1, 2)
	if equal(a, c) || allClose(a, c, 1) {
		t.Fatal("shape mismatch must not compare equal")
	}
}

func TestGemmKnown(t *testing.T) {
	a := fromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := fromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	if err := GemmInto(c, a, b); err != nil {
		t.Fatal(err)
	}
	want := fromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !equal(c, want) {
		t.Fatalf("Gemm = %v, want %v", c.Data(), want.Data())
	}
}

func TestGemmShapeErrors(t *testing.T) {
	if err := GemmInto(New(2, 3), New(2, 3), New(2, 3)); err == nil {
		t.Fatal("inner mismatch accepted")
	}
	if err := GemmInto(New(2, 3), New(2), New(2, 3)); err == nil {
		t.Fatal("rank-1 operand accepted")
	}
	if err := GemmTransAInto(New(3, 2), New(2, 3), New(3, 2)); err == nil {
		t.Fatal("GemmTransA inner mismatch accepted")
	}
	if err := GemmTransBInto(New(2, 2), New(2, 3), New(2, 4)); err == nil {
		t.Fatal("GemmTransB inner mismatch accepted")
	}
}

func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.Data() {
		t.Data()[i] = rng.Float32()*2 - 1
	}
	return t
}

// Property: GemmTransAInto(Aᵀ stored as A, B) equals GemmInto of the
// explicit transpose, and likewise for GemmTransBInto.
func TestGemmTransposeAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 25; iter++ {
		m := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		a := randMat(rng, k, m) // stored transposed for GemmTransA
		b := randMat(rng, k, n)
		at := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				set(at, a.At(i, j), j, i)
			}
		}
		got, want := New(m, n), New(m, n)
		if err := GemmTransAInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		if err := GemmInto(want, at, b); err != nil {
			t.Fatal(err)
		}
		if !allClose(got, want, 1e-4) {
			t.Fatalf("GemmTransA disagrees with explicit transpose (m=%d k=%d n=%d)", m, k, n)
		}

		bt := New(n, k)
		a2 := randMat(rng, m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				set(bt, b.At(i, j), j, i)
			}
		}
		got2, want2 := New(m, n), New(m, n)
		if err := GemmTransBInto(got2, a2, bt); err != nil {
			t.Fatal(err)
		}
		if err := GemmInto(want2, a2, b); err != nil {
			t.Fatal(err)
		}
		if !allClose(got2, want2, 1e-4) {
			t.Fatalf("GemmTransB disagrees with explicit transpose (m=%d k=%d n=%d)", m, k, n)
		}
	}
}

// Property (testing/quick): Gemm is linear in its first argument:
// (A1+A2)·B == A1·B + A2·B.
func TestGemmLinearityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a1 := randMat(rng, m, k)
		a2 := randMat(rng, m, k)
		b := randMat(rng, k, n)
		sum := a1.Clone()
		add(sum, a2)
		lhs, c1, c2 := New(m, n), New(m, n), New(m, n)
		if GemmInto(lhs, sum, b) != nil || GemmInto(c1, a1, b) != nil || GemmInto(c2, a2, b) != nil {
			return false
		}
		add(c1, c2)
		return allClose(lhs, c1, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomOutput(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if g.OutH() != 30 || g.OutW() != 30 {
		t.Fatalf("out = %dx%d, want 30x30", g.OutH(), g.OutW())
	}
	g.PadH, g.PadW = 1, 1
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("padded out = %dx%d, want 32x32", g.OutH(), g.OutW())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeomValidateErrors(t *testing.T) {
	cases := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 1, InW: 4, KH: 3, KW: 1, StrideH: 3, StrideW: 1}, // OutH would truncate to 1
		{InC: 1, InH: 4, InW: 2, KH: 1, KW: 3, StrideH: 1, StrideW: 2},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1: im2col is the identity flattening.
	in := fromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	cols := New(1, 4)
	if err := Im2ColInto(cols, in, g); err != nil {
		t.Fatal(err)
	}
	want := fromSlice([]float32{1, 2, 3, 4}, 1, 4)
	if !equal(cols, want) {
		t.Fatalf("Im2Col 1x1 = %v", cols.Data())
	}
}

func TestIm2ColKnownWindows(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1 → four windows.
	in := fromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	cols := New(4, 4)
	if err := Im2ColInto(cols, in, g); err != nil {
		t.Fatal(err)
	}
	// Rows are kernel positions, columns are windows in raster order.
	want := fromSlice([]float32{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 4, 4)
	if !equal(cols, want) {
		t.Fatalf("Im2Col windows wrong:\n got %v\nwant %v", cols.Data(), want.Data())
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	in := fromSlice([]float32{5}, 1, 1, 1)
	g := ConvGeom{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := New(9, 1)
	if err := Im2ColInto(cols, in, g); err != nil {
		t.Fatal(err)
	}
	// Only the center tap sees the value.
	for r := 0; r < 9; r++ {
		want := float32(0)
		if r == 4 {
			want = 5
		}
		if cols.At(r, 0) != want {
			t.Fatalf("row %d = %v, want %v", r, cols.At(r, 0), want)
		}
	}
}

func TestIm2ColShapeMismatch(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if err := Im2ColInto(New(18, 4), New(1, 4, 4), g); err == nil {
		t.Fatal("channel mismatch accepted")
	}
}

// Property: Col2ImInto(Im2ColInto(x)) multiplies each input element by the number
// of windows covering it. With 1x1 kernels and stride 1, that is exactly x.
func TestCol2ImAdjointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := New(2, 5, 5)
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	cols, back := New(2, 25), New(2, 5, 5)
	if err := Im2ColInto(cols, in, g); err != nil {
		t.Fatal(err)
	}
	if err := Col2ImInto(back, cols, g); err != nil {
		t.Fatal(err)
	}
	if !allClose(in, back, 1e-6) {
		t.Fatal("Col2Im(Im2Col(x)) != x for 1x1/stride-1")
	}
}

// Property: the adjoint identity <Im2Col(x), y> == <x, Col2Im(y)> holds for
// random geometries. This is what the conv backward pass relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		g := ConvGeom{
			InC:     1 + rng.Intn(3),
			InH:     3 + rng.Intn(5),
			InW:     3 + rng.Intn(5),
			KH:      1 + rng.Intn(3),
			KW:      1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2),
			StrideW: 1 + rng.Intn(2),
			PadH:    rng.Intn(2),
			PadW:    rng.Intn(2),
		}
		if g.Validate() != nil {
			continue
		}
		x := New(g.InC, g.InH, g.InW)
		for i := range x.Data() {
			x.Data()[i] = rng.Float32()*2 - 1
		}
		cx := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		if err := Im2ColInto(cx, x, g); err != nil {
			t.Fatal(err)
		}
		y := New(cx.Dim(0), cx.Dim(1))
		for i := range y.Data() {
			y.Data()[i] = rng.Float32()*2 - 1
		}
		cy := New(g.InC, g.InH, g.InW)
		if err := Col2ImInto(cy, y, g); err != nil {
			t.Fatal(err)
		}
		var lhs, rhs float64
		for i := range cx.Data() {
			lhs += float64(cx.Data()[i]) * float64(y.Data()[i])
		}
		for i := range x.Data() {
			rhs += float64(x.Data()[i]) * float64(cy.Data()[i])
		}
		if math.Abs(lhs-rhs) > 1e-3 {
			t.Fatalf("adjoint identity violated: %v vs %v (geom %+v)", lhs, rhs, g)
		}
	}
}

func TestCol2ImShapeMismatch(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := Col2ImInto(New(1, 3, 3), New(3, 4), g); err == nil {
		t.Fatal("wrong row count accepted")
	}
}

func TestStringer(t *testing.T) {
	if s := New(2, 3).String(); s != "Tensor[2 3]" {
		t.Fatalf("String = %q", s)
	}
}
