package quant

import (
	"math"
	"math/rand"
	"testing"
)

// The integer fast path's correctness hinges on one identity: the int8
// codes written by QuantizeTensorInt8, rescaled in float32, must reproduce
// the fake-quantized float weights of QuantizeTensor bit for bit, with one
// tensor-wide scale or one scale per row. These tests pin
// that identity and the rounding rule it rests on.

func randWeights(rng *rand.Rand, n int) []float32 {
	ws := make([]float32, n)
	for i := range ws {
		switch rng.Intn(10) {
		case 0:
			ws[i] = 0
		case 1:
			ws[i] = float32(rng.NormFloat64()) * 10 // saturates the grid
		default:
			ws[i] = float32(rng.NormFloat64()) * 0.3
		}
	}
	return ws
}

func TestInt8CodesMatchFakeQuantizedFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, bits := range []int{1, 2, 3, 4, 8} {
		q, err := NewWeightQuantizer(bits)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Int8Capable() {
			t.Fatalf("bits=%d reported not int8-capable", bits)
		}
		ws := randWeights(rng, 257)
		ref := make([]float32, len(ws))
		refScales, err := q.QuantizeTensor(ref, ws, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		codes := make([]int8, len(ws))
		scales, err := q.QuantizeTensorInt8(codes, ws, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		scale := scales[0]
		if scale != refScales[0] {
			t.Fatalf("bits=%d: int8 scale %v, float scale %v", bits, scale, refScales[0])
		}
		for i, c := range codes {
			if lim := int8(q.Levels()); c > lim || c < -lim {
				t.Fatalf("bits=%d: code %d exceeds ±%d", bits, c, lim)
			}
			if got := float32(c) * scale; got != ref[i] {
				t.Fatalf("bits=%d w=%v: code %d * scale %v = %v, want %v",
					bits, ws[i], c, scale, got, ref[i])
			}
		}
	}
}

func TestInt8PerChannelCodesMatchFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q, err := NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	const rows, rowLen = 7, 33
	ws := randWeights(rng, rows*rowLen)
	ref := make([]float32, len(ws))
	refScales, err := q.QuantizeTensor(ref, ws, rowLen)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int8, len(ws))
	scales, err := q.QuantizeTensorInt8(codes, ws, rowLen)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if scales[r] != refScales[r] {
			t.Fatalf("row %d: scale %v vs %v", r, scales[r], refScales[r])
		}
		for i := r * rowLen; i < (r+1)*rowLen; i++ {
			if got := float32(codes[i]) * scales[r]; got != ref[i] {
				t.Fatalf("row %d idx %d: %v vs %v", r, i, got, ref[i])
			}
		}
	}
}

func TestInt8RejectsWideGrids(t *testing.T) {
	q, err := NewWeightQuantizer(9)
	if err != nil {
		t.Fatal(err)
	}
	if q.Int8Capable() {
		t.Fatal("9-bit grid reported int8-capable")
	}
	if _, err := q.QuantizeTensorInt8(make([]int8, 1), make([]float32, 1), 1); err == nil {
		t.Fatal("QuantizeTensorInt8 accepted a 9-bit grid")
	}
}

func TestQuantizeSymmetricInt8(t *testing.T) {
	src := []float32{0, 1, -1, 0.5, -0.25, 127, -127}
	dst := make([]int8, len(src))
	scale, err := QuantizeSymmetricInt8(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		t.Fatalf("scale = %v, want 1 (maxAbs 127 / 127)", scale)
	}
	want := []int8{0, 1, -1, 1, 0, 127, -127} // 0.5 rounds away, -0.25 to 0
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("code[%d] = %d, want %d", i, dst[i], w)
		}
	}

	// All-zero input: scale 0 and zero codes, so code*scale stays exact.
	clear(src)
	for i := range dst {
		dst[i] = 99
	}
	scale, err = QuantizeSymmetricInt8(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 0 {
		t.Fatalf("zero-input scale = %v", scale)
	}
	for i, c := range dst {
		if c != 0 {
			t.Fatalf("zero-input code[%d] = %d", i, c)
		}
	}

	if _, err := QuantizeSymmetricInt8(make([]int8, 2), make([]float32, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestQuantizeSymmetricInt8NonFinite: NaN and ±Inf have no int8 code, so
// they are errors, wherever they sit and whatever else the input holds.
func TestQuantizeSymmetricInt8NonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, src := range [][]float32{
		{0.5, nan, 1},
		{nan, nan},
		{nan},
		{2, 1, nan},
		{0.5, inf, 1},
		{-inf, 0},
		{0, 0, -inf},
	} {
		if _, err := QuantizeSymmetricInt8(make([]int8, len(src)), src); err == nil {
			t.Errorf("%v accepted", src)
		}
	}
}

func TestQuantizeSymmetricInt8Bound(t *testing.T) {
	// |x - code*scale| ≤ scale/2 for every in-range input: the bound the
	// nn acceptance tests build their int-vs-float tolerance from.
	rng := rand.New(rand.NewSource(63))
	src := make([]float32, 512)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]int8, len(src))
	scale, err := QuantizeSymmetricInt8(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range src {
		if d := math.Abs(float64(v - float32(dst[i])*scale)); d > float64(scale)/2*(1+1e-6) {
			t.Fatalf("input %v: code %d, error %v > scale/2 = %v", v, dst[i], d, scale/2)
		}
	}
}

// roundRef is the reference definition of RoundHalfAway.
func roundRef(v float32) float32 { return float32(math.Round(float64(v))) }

// FuzzRoundHalfAway pins the rounding rule shared by the float and integer
// quantization paths: RoundHalfAway must equal the math.Round reference
// bit for bit, ±0, ±Inf and NaN included, and the int8 clamp boundaries
// stay consistent between Quantize/QuantizeTensor and the code-producing
// int8 variants.
func FuzzRoundHalfAway(f *testing.F) {
	f.Add(float32(0))
	f.Add(float32(0.5))
	f.Add(float32(-0.5))
	f.Add(float32(2.5))
	f.Add(float32(-2.5))
	f.Add(float32(126.5))
	f.Add(float32(-126.5))
	f.Add(float32(127.49))
	f.Add(float32(0.49999997))
	f.Add(float32(8388607.5))
	f.Add(float32(1e30))
	f.Add(float32(-1e30))
	f.Add(float32(math.NaN()))
	f.Fuzz(func(t *testing.T, v float32) {
		if got, want := RoundHalfAway(v), roundRef(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("RoundHalfAway(%v) = %v (%#x), math.Round gives %v (%#x)",
				v, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		if v != v {
			return // a NaN weight has no grid code
		}

		// Clamp-boundary consistency: an 8-bit grid quantizing the single
		// value v must satisfy code*scale == fake-quantized float exactly,
		// including at and beyond the ±127 clamp.
		q := &WeightQuantizer{Bits: 8, Scale: 1}
		src := []float32{v}
		ref := []float32{0}
		refScales, err := q.QuantizeTensor(ref, src, 1)
		if err != nil {
			t.Fatal(err)
		}
		codes := []int8{0}
		scales, err := q.QuantizeTensorInt8(codes, src, 1)
		if err != nil {
			t.Fatal(err)
		}
		scale := scales[0]
		if scale != refScales[0] {
			t.Fatalf("scales diverge: %v vs %v", scale, refScales[0])
		}
		if got := float32(codes[0]) * scale; got != ref[0] {
			t.Fatalf("v=%v: code %d * %v = %v, float path %v", v, codes[0], scale, got, ref[0])
		}
	})
}

// TestRoundHalfAwayHalves sweeps every k+½ with |k| < 2^20, both signs,
// and the three float32 neighbours on each side, against the reference.
func TestRoundHalfAwayHalves(t *testing.T) {
	for k := 0; k < 1<<20; k++ {
		for _, sign := range []float32{1, -1} {
			key := math.Float32bits(float32(k) + 0.5)
			for d := uint32(0); d <= 6; d++ {
				v := sign * math.Float32frombits(key+d-3)
				if got, want := RoundHalfAway(v), roundRef(v); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("RoundHalfAway(%v) = %v, math.Round gives %v", v, got, want)
				}
			}
		}
	}
}
