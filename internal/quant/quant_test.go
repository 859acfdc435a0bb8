package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewWeightQuantizerValidation(t *testing.T) {
	for _, bits := range []int{0, -1, 17} {
		if _, err := NewWeightQuantizer(bits); err == nil {
			t.Errorf("bits=%d accepted", bits)
		}
	}
	q, err := NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Levels() != 1 {
		t.Fatalf("2-bit levels = %d, want 1", q.Levels())
	}
	q8, _ := NewWeightQuantizer(8)
	if q8.Levels() != 127 {
		t.Fatalf("8-bit levels = %d, want 127", q8.Levels())
	}
}

func TestBinaryWeightQuantize(t *testing.T) {
	q, _ := NewWeightQuantizer(1)
	if quantizeWeight(q, 0.3) != q.Scale || quantizeWeight(q, -0.3) != -q.Scale {
		t.Fatal("binary quantize sign wrong")
	}
	if quantizeWeight(q, 0) != q.Scale {
		t.Fatal("binary quantize of zero should be +scale")
	}
}

func TestWeightQuantizeClips(t *testing.T) {
	q, _ := NewWeightQuantizer(2)
	limit := q.Scale * float32(q.Levels())
	if got := quantizeWeight(q, 100); got != limit {
		t.Fatalf("positive clip = %v, want %v", got, limit)
	}
	if got := quantizeWeight(q, -100); got != -limit {
		t.Fatalf("negative clip = %v, want %v", got, -limit)
	}
}

// Property: quantization error is bounded by half a step inside the grid
// range, and the result is always a grid point.
func TestWeightQuantizeErrorBoundQuick(t *testing.T) {
	q, _ := NewWeightQuantizer(4)
	limit := float64(q.Scale) * float64(q.Levels())
	f := func(w float32) bool {
		if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			return true
		}
		got := float64(quantizeWeight(q, w))
		// Always on grid:
		ratio := got / float64(q.Scale)
		if math.Abs(ratio-math.Round(ratio)) > 1e-5 {
			return false
		}
		if math.Abs(float64(w)) <= limit {
			return math.Abs(got-float64(w)) <= float64(q.Scale)/2+1e-6
		}
		return math.Abs(got) <= limit+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []int{1, 2, 3, 8} {
		q, _ := NewWeightQuantizer(bits)
		for i := 0; i < 100; i++ {
			w := rng.Float32()*4 - 2
			once := quantizeWeight(q, w)
			twice := quantizeWeight(q, once)
			if once != twice {
				t.Fatalf("bits=%d: quantize not idempotent: %v -> %v -> %v", bits, w, once, twice)
			}
		}
	}
}

// TestPerChannelBeatsPerTensorOnHeterogeneousRows: when filters have very
// different magnitudes, per-channel scales reconstruct the weights with
// lower error than one tensor-wide scale.
func TestPerChannelBeatsPerTensorOnHeterogeneousRows(t *testing.T) {
	q, _ := NewWeightQuantizer(2)
	const rowLen = 16
	src := make([]float32, 3*rowLen)
	rng := rand.New(rand.NewSource(8))
	for r, mag := range []float32{0.01, 0.3, 5.0} {
		for i := 0; i < rowLen; i++ {
			src[r*rowLen+i] = (rng.Float32()*2 - 1) * mag
		}
	}
	perT := make([]float32, len(src))
	if _, err := q.QuantizeTensor(perT, src, len(src)); err != nil {
		t.Fatal(err)
	}
	perC := make([]float32, len(src))
	scales, err := q.QuantizeTensor(perC, src, rowLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) != 3 {
		t.Fatalf("scales = %d", len(scales))
	}
	if !(scales[0] < scales[1] && scales[1] < scales[2]) {
		t.Fatalf("scales not tracking row magnitudes: %v", scales)
	}
	mse := func(a []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i] - src[i])
			s += d * d
		}
		return s
	}
	if mse(perC) >= mse(perT) {
		t.Fatalf("per-channel MSE %.4g not below per-tensor %.4g", mse(perC), mse(perT))
	}
}

func TestQuantizeTensorPerChannelValidation(t *testing.T) {
	q, _ := NewWeightQuantizer(2)
	if _, err := q.QuantizeTensor(make([]float32, 4), make([]float32, 6), 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := q.QuantizeTensor(make([]float32, 6), make([]float32, 6), 4); err == nil {
		t.Fatal("indivisible row length accepted")
	}
	if _, err := q.QuantizeTensor(make([]float32, 6), make([]float32, 6), 0); err == nil {
		t.Fatal("zero row length accepted")
	}
}

func TestWeightSTEGrad(t *testing.T) {
	q, _ := NewWeightQuantizer(2)
	if weightSTEGrad(q, 0.1, 2.5) != 2.5 {
		t.Fatal("in-range gradient altered")
	}
	if weightSTEGrad(q, 10, 2.5) != 0 || weightSTEGrad(q, -10, 2.5) != 0 {
		t.Fatal("saturated gradient not clipped")
	}
	b, _ := NewWeightQuantizer(1)
	if weightSTEGrad(b, 0.99, 1) != 1 || weightSTEGrad(b, 1.5, 1) != 0 {
		t.Fatal("binary STE clip at ±1 wrong")
	}
}

// quantizeWeight returns the nearest value to w on q's grid at its fixed
// step q.Scale (for 1-bit, sign(w)·Scale, zero mapping to +Scale as
// Brevitas binary weights do): QuantizeTensor's rounding at one step.
func quantizeWeight(q *WeightQuantizer, w float32) float32 { return q.quantizeWith(w, q.Scale) }

// weightSTEGrad is the clipped straight-through estimator of a weight
// grid: the gradient passes where |w| is within the grid range and is zero
// outside (±1 for binary weights, like Brevitas' binary STE).
func weightSTEGrad(q *WeightQuantizer, w, grad float32) float32 {
	limit := q.Scale * float32(q.Levels())
	if q.Bits == 1 {
		limit = 1
	}
	if w > limit || w < -limit {
		return 0
	}
	return grad
}

func TestNewActQuantizerValidation(t *testing.T) {
	if _, err := NewActQuantizer(0, 1); err == nil {
		t.Fatal("bits=0 accepted")
	}
	if _, err := NewActQuantizer(2, 0); err == nil {
		t.Fatal("max=0 accepted")
	}
	if _, err := NewActQuantizer(2, -1); err == nil {
		t.Fatal("negative max accepted")
	}
	if _, err := NewActQuantizer(2, float32(math.Inf(1))); err == nil {
		t.Fatal("max=+Inf accepted")
	}
	if _, err := NewActQuantizer(2, float32(math.NaN())); err == nil {
		t.Fatal("max=NaN accepted")
	}
	// A subnormal step rounds far from max/(2^bits−1), so inputs below
	// max could round above the top level.
	if _, err := NewActQuantizer(3, 10*math.SmallestNonzeroFloat32); err == nil {
		t.Fatal("subnormal step accepted")
	}
	if _, err := NewActQuantizer(16, math.MaxFloat32); err != nil {
		t.Fatalf("max=MaxFloat32 rejected: %v", err)
	}
}

// checkLadder demands QuantizeInto(x) == Quantize(x) bit for bit for every
// x of xs; a NaN must come out NaN.
func checkLadder(t *testing.T, q *ActQuantizer, xs []float32) {
	t.Helper()
	got := make([]float32, len(xs))
	q.QuantizeInto(got, xs)
	for i, x := range xs {
		want := q.Quantize(x)
		if x != x {
			if got[i] == got[i] {
				t.Fatalf("bits=%d max=%v: ladder(NaN) = %v", q.Bits, q.Max, got[i])
			}
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("bits=%d max=%v: ladder(%v) = %v, Quantize = %v", q.Bits, q.Max, x, got[i], want)
		}
	}
}

// ulpsAround returns the 2n+1 float32 values within n ulps of x, walking
// the ordered keys (so it steps across ±0).
func ulpsAround(x float32, n int) []float32 {
	out := make([]float32, 0, 2*n+1)
	for d := -n; d <= n; d++ {
		out = append(out, keyFloat(orderedKey(x)+int64(d)))
	}
	return out
}

func TestActLadderMatchesQuantize(t *testing.T) {
	inf := float32(math.Inf(1))
	special := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()),
		-float32(math.NaN()), math.Float32frombits(0x7f800001), // a signalling NaN
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x00400000), // subnormals
		math.MaxFloat32, -math.MaxFloat32}
	sawInexactTop := false
	for _, max := range []float32{3, 2, 1, 0.1, 6.3, 1e-3, 1e30} {
		for bits := 1; bits <= 8; bits++ {
			q, err := NewActQuantizer(bits, max)
			if err != nil {
				t.Fatal(err)
			}
			if q.Step()*float32(q.Levels()-1) != max {
				sawInexactTop = true
			}
			xs := append([]float32(nil), special...)
			xs = append(xs, ulpsAround(max, 8)...)
			for _, e := range q.edges {
				xs = append(xs, ulpsAround(math.Float32frombits(uint32(e)), 8)...)
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			for i := 0; i < 2000; i++ {
				xs = append(xs, (rng.Float32()*1.4-0.2)*max, math.Float32frombits(rng.Uint32()))
			}
			checkLadder(t, q, xs)
		}
	}
	if !sawInexactTop {
		t.Fatal("no case with Step()·(Levels−1) ≠ Max; the list no longer covers it")
	}
}

// FuzzActLadder checks the exact ladder against Quantize on fuzzed
// quantizers and inputs, bit for bit, and that NewActQuantizer rejects
// only what it documents.
func FuzzActLadder(f *testing.F) {
	f.Add(uint8(2), float32(2), float32(0.5))
	f.Add(uint8(2), float32(3), float32(1.5))
	f.Add(uint8(1), float32(1), float32(0.5))
	f.Add(uint8(8), float32(0.1), float32(0.05))
	f.Add(uint8(3), float32(1e-30), float32(4e-31))
	f.Add(uint8(16), float32(6.5), float32(6.4999))
	f.Fuzz(func(t *testing.T, b uint8, max, x float32) {
		bits := int(b%16) + 1
		q, err := NewActQuantizer(bits, max)
		if err != nil {
			if max > 0 && max <= math.MaxFloat32 && max/float32(int(1)<<bits-1) >= 0x1p-126 {
				t.Fatalf("NewActQuantizer(%d, %v) rejected a valid quantizer: %v", bits, max, err)
			}
			return
		}
		checkLadder(t, q, ulpsAround(x, 2))
	})
}

// checkAffineLadder demands, for every finite accumulator a of as, that
// AffineLadder(γ, β)'s threshold count equal the level QuantizeInto's
// ladder gives γ·a+β, and that LevelValue of that count be what
// QuantizeInto writes, bit for bit.
func checkAffineLadder(t *testing.T, q *ActQuantizer, gamma, beta float32, as []float32) {
	t.Helper()
	th, up, err := q.AffineLadder(gamma, beta)
	if err != nil {
		t.Fatalf("AffineLadder(%v, %v): %v", gamma, beta, err)
	}
	if len(th) != q.Levels() {
		t.Fatalf("bits=%d: %d thresholds, want %d", q.Bits, len(th), q.Levels())
	}
	zs := make([]float32, len(as))
	for i, a := range as {
		zs[i] = gamma*a + beta
	}
	got := make([]float32, len(zs))
	q.QuantizeInto(got, zs)
	for i, a := range as {
		if !isFinite(a) {
			continue
		}
		n := 0
		for _, e := range th {
			if up && a >= e || !up && a <= e {
				n++
			}
		}
		level := 0
		for _, e := range q.edges {
			if e <= orderedKey(zs[i]) {
				level++
			}
		}
		if n != level || math.Float32bits(q.LevelValue(n)) != math.Float32bits(got[i]) {
			t.Fatalf("bits=%d max=%v γ=%v β=%v a=%v: %d thresholds crossed (value %v), QuantizeInto(%v) level %d (value %v)",
				q.Bits, q.Max, gamma, beta, a, n, q.LevelValue(n), zs[i], level, got[i])
		}
	}
}

func TestAffineLadderMatchesQuantizeInto(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	gammas := []float32{1, 0.37, 2.5e-3, -1.3, -0.004, 0, negZero,
		math.SmallestNonzeroFloat32, -1e-40, 1e30, -3e38}
	for _, max := range []float32{3, 0.1, 6.3, 1e-3} {
		for bits := 1; bits <= 8; bits++ {
			q, err := NewActQuantizer(bits, max)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			for _, gamma := range gammas {
				for _, beta := range []float32{0, 0.7 * max, -1.2 * max} {
					var as []float32
					for i := 0; i < 300; i++ {
						as = append(as, float32(rng.NormFloat64())*2*max, math.Float32frombits(rng.Uint32()))
					}
					th, _, err := q.AffineLadder(gamma, beta)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range th {
						if isFinite(e) {
							as = append(as, ulpsAround(e, 8)...)
						}
					}
					checkAffineLadder(t, q, gamma, beta, as)
				}
			}
		}
	}
}

// FuzzAffineLadder checks AffineLadder's threshold count against
// QuantizeInto on fuzzed quantizers, affines and accumulators, and that
// it rejects a NaN or infinite γ or β.
func FuzzAffineLadder(f *testing.F) {
	f.Add(uint8(2), float32(2), float32(math.NaN()), float32(0), float32(1))
	f.Add(uint8(2), float32(2), float32(math.Inf(-1)), float32(0), float32(1))
	f.Add(uint8(2), float32(2), float32(1), float32(math.Inf(1)), float32(1))
	f.Add(uint8(2), float32(2), float32(0.8), float32(0.1), float32(1.25))
	f.Add(uint8(2), float32(3), float32(-1.3), float32(0.7), float32(-0.4))
	f.Add(uint8(1), float32(1), float32(0), float32(0.6), float32(5))
	f.Add(uint8(8), float32(0.1), float32(1e-40), float32(0.05), float32(1e38))
	f.Add(uint8(4), float32(6.3), float32(3e38), float32(-1), float32(1e-38))
	f.Fuzz(func(t *testing.T, b uint8, max, gamma, beta, a float32) {
		q, err := NewActQuantizer(int(b%8)+1, max)
		if err != nil {
			return
		}
		if !isFinite(gamma) || !isFinite(beta) {
			if _, _, err := q.AffineLadder(gamma, beta); err == nil {
				t.Fatalf("AffineLadder(%v, %v) accepted", gamma, beta)
			}
			return
		}
		checkAffineLadder(t, q, gamma, beta, ulpsAround(a, 2))
	})
}

func TestActQuantizeA2(t *testing.T) {
	q, _ := NewActQuantizer(2, 3) // levels 0,1,2,3
	if q.Levels() != 4 || q.Step() != 1 {
		t.Fatalf("levels=%d step=%v", q.Levels(), q.Step())
	}
	cases := []struct {
		in   float32
		want float32
		code int
	}{
		{-5, 0, 0}, {0, 0, 0}, {0.4, 0, 0}, {0.6, 1, 1},
		{1.4, 1, 1}, {2.6, 3, 3}, {3, 3, 3}, {99, 3, 3},
	}
	for _, c := range cases {
		if got := q.Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
		if got := q.Code(c.in); got != c.code {
			t.Errorf("Code(%v) = %d, want %d", c.in, got, c.code)
		}
	}
}

func TestActSTEGrad(t *testing.T) {
	q, _ := NewActQuantizer(2, 3)
	if q.STEGrad(1.5, 2) != 2 {
		t.Fatal("in-range act gradient altered")
	}
	if q.STEGrad(-0.1, 2) != 0 || q.STEGrad(3.1, 2) != 0 {
		t.Fatal("clipped act gradient not zero")
	}
}
