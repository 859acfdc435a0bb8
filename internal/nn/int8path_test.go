package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Acceptance tests for the integer inference fast path: quantized layers
// must actually execute the integer kernel (not silently fall back to float),
// agree with the float reference within the activation-quantization bound,
// and be bit-identical across worker counts. The oracle (oracle_test.go)
// checks both bodies against brute force.

func forceFloat(t *testing.T) {
	t.Helper()
	prev := SetInt8GEMM(false)
	t.Cleanup(func() { SetInt8GEMM(prev) })
}

func forceInt8(t *testing.T) {
	t.Helper()
	prev := SetInt8GEMM(true)
	t.Cleanup(func() { SetInt8GEMM(prev) })
}

func testConv(t *testing.T, bits int, perChannel bool) (*Conv2D, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	q, err := quant.NewWeightQuantizer(bits)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 3, InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 6, Bias: true, WQuant: q, PerChannel: perChannel, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Bias.Value.Data() {
		c.Bias.Value.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	x := tensor.New(3, 9, 9)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	return c, x
}

// intFloatBound returns the worst-case deviation of the integer path from
// the float reference for output row o: the input codes are off by at most
// half an activation step, scaled through the row's effective-weight ℓ1
// norm, plus slack for float rounding in the reference GEMM itself.
func intFloatBound(effW []float32, rowLen, o int, sx float32) float64 {
	var l1 float64
	for _, w := range effW[o*rowLen : (o+1)*rowLen] {
		l1 += math.Abs(float64(w))
	}
	return 0.5*float64(sx)*l1*(1+1e-5) + 1e-4
}

func TestQuantizedConvTakesInt8Path(t *testing.T) {
	for _, perChannel := range []bool{false, true} {
		forceInt8(t)
		c, x := testConv(t, 2, perChannel)

		intOut, err := c.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if c.intForwards != 1 || c.floatFwds != 0 {
			t.Fatalf("perChannel=%v: int path not taken (int=%d float=%d)",
				perChannel, c.intForwards, c.floatFwds)
		}

		SetInt8GEMM(false)
		floatOut, err := c.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if c.floatFwds != 1 {
			t.Fatalf("perChannel=%v: float path not taken after SetInt8GEMM(false)", perChannel)
		}

		effW, err := c.EffectiveWeights()
		if err != nil {
			t.Fatal(err)
		}
		sx := actScale(x.Data())
		rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
		cols := intOut.Len() / c.OutC
		for i := range intOut.Data() {
			bound := intFloatBound(effW.Data(), rowLen, i/cols, sx)
			if d := math.Abs(float64(intOut.Data()[i] - floatOut.Data()[i])); d > bound {
				t.Fatalf("perChannel=%v out[%d]: int %v float %v, |Δ|=%v > bound %v",
					perChannel, i, intOut.Data()[i], floatOut.Data()[i], d, bound)
			}
		}
	}
}

// actScale reproduces the dynamic activation scale QuantizeSymmetricInt8
// derives, for building tolerance bounds.
func actScale(xs []float32) float32 {
	var maxAbs float32
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	return maxAbs / 127
}

func TestQuantizedDenseTakesInt8Path(t *testing.T) {
	forceInt8(t)
	rng := rand.New(rand.NewSource(82))
	q, err := quant.NewWeightQuantizer(4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "d", In: 37, Out: 11, Bias: true, WQuant: q, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(37)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}

	intOut, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.intForwards != 1 || d.floatFwds != 0 {
		t.Fatalf("int path not taken (int=%d float=%d)", d.intForwards, d.floatFwds)
	}

	SetInt8GEMM(false)
	floatOut, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.floatFwds != 1 {
		t.Fatal("float path not taken after SetInt8GEMM(false)")
	}

	effW, err := d.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	sx := actScale(x.Data())
	for o := 0; o < d.Out; o++ {
		bound := intFloatBound(effW.Data(), d.In, o, sx)
		if diff := math.Abs(float64(intOut.Data()[o] - floatOut.Data()[o])); diff > bound {
			t.Fatalf("out[%d]: int %v float %v, |Δ|=%v > bound %v",
				o, intOut.Data()[o], floatOut.Data()[o], diff, bound)
		}
	}
}

func TestInt8PathBitIdenticalAcrossWorkers(t *testing.T) {
	forceInt8(t)
	prevGrain := tensor.SetParallelGrain(1)
	defer tensor.SetParallelGrain(prevGrain)
	c, x := testConv(t, 2, true)
	var first []float32
	for _, cap := range []int{1, 2, runtime.NumCPU()} {
		prev := tensor.SetMaxWorkers(cap)
		out, err := c.Forward(x, false)
		tensor.SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]float32(nil), out.Data()...)
			continue
		}
		for i, v := range out.Data() {
			if v != first[i] {
				t.Fatalf("workers=%d: out[%d] = %v, 1-worker %v", cap, i, v, first[i])
			}
		}
	}
	if c.intForwards != 3 {
		t.Fatalf("intForwards = %d, want 3", c.intForwards)
	}
}

func TestFloatLayersNeverTakeInt8Path(t *testing.T) {
	forceInt8(t)
	rng := rand.New(rand.NewSource(83))
	c, err := NewConv2D(ConvConfig{
		ID:   "f",
		Geom: tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		OutC: 3, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 5, 5)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	if _, err := c.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if c.intForwards != 0 {
		t.Fatal("float layer took the int8 path")
	}
}

// Training forwards must stay on the float reference regardless of the
// fast-path switch — the straight-through backward pass consumes the float
// cache the int path never fills.
func TestTrainingStaysOnFloatPath(t *testing.T) {
	forceInt8(t)
	c, x := testConv(t, 2, false)
	out, err := c.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.intForwards != 0 {
		t.Fatal("training forward took the int8 path")
	}
	grad := tensor.New(out.Shape()...)
	for i := range grad.Data() {
		grad.Data()[i] = 1
	}
	if _, err := c.Backward(grad); err != nil {
		t.Fatalf("backward after training forward: %v", err)
	}
}

// A wide (>8-bit) grid cannot carry int8 codes; such layers must fall back
// to the float path even with the switch on.
func TestWideGridFallsBackToFloat(t *testing.T) {
	forceInt8(t)
	rng := rand.New(rand.NewSource(84))
	q, err := quant.NewWeightQuantizer(9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "w", In: 8, Out: 4, WQuant: q, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(8)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	if _, err := d.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if d.intForwards != 0 || d.floatFwds != 1 {
		t.Fatalf("9-bit layer: int=%d float=%d, want float fallback", d.intForwards, d.floatFwds)
	}
}

// TestInnerDimensionBound: the bit-plane kernel's sums are exact for an
// inner dimension below 2¹⁷. A quantized Dense with In = 2¹⁷ - 1 runs on
// the integer body; one with In = 2¹⁷ is past the bound, so there Forward
// and ForwardBatch return an error, never a panic, and under
// SetInt8GEMM(false) it runs on the float body.
func TestInnerDimensionBound(t *testing.T) {
	forceInt8(t)
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []int{1<<17 - 1, 1 << 17} {
		d, err := NewDense(DenseConfig{ID: "wide", In: in, Out: 2, WQuant: q, InitRNG: rand.New(rand.NewSource(86))})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(in)
		x.Fill(0.5)
		_, errOne := d.Forward(x, false)
		_, errBatch := d.ForwardBatch([]*tensor.Tensor{x, x})
		if in < 1<<17 {
			if errOne != nil || errBatch != nil || d.intForwards != 3 {
				t.Fatalf("In=%d: errors %v, %v and %d integer forwards; want none and 3", in, errOne, errBatch, d.intForwards)
			}
			continue
		}
		if errOne == nil || errBatch == nil || d.intForwards != 0 {
			t.Fatalf("In=%d: errors %v, %v and %d integer forwards; want two errors and none", in, errOne, errBatch, d.intForwards)
		}
		SetInt8GEMM(false)
		_, errOne = d.Forward(x, false)
		_, errBatch = d.ForwardBatch([]*tensor.Tensor{x, x})
		if errOne != nil || errBatch != nil || d.floatFwds != 3 {
			t.Fatalf("In=%d on the float body: errors %v, %v and %d float forwards; want none and 3", in, errOne, errBatch, d.floatFwds)
		}
	}
}

// TestNonFiniteInputIsAnError: a NaN or infinite activation has no int8
// code, so the integer path must fail rather than return a finite output
// the float path would never produce.
func TestNonFiniteInputIsAnError(t *testing.T) {
	forceInt8(t)
	c, x := testConv(t, 2, false)
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "d", In: 20, Out: 4, WQuant: q, InitRNG: rand.New(rand.NewSource(85))})
	if err != nil {
		t.Fatal(err)
	}
	v := tensor.New(20)
	v.Fill(0.5)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, bsz := range []int{1, 3} {
			for name, run := range map[string]func() error{
				"conv": func() error {
					xs := batchWithBad(x, bsz, bad)
					_, err := c.ForwardBatch(xs)
					return err
				},
				"dense": func() error {
					xs := batchWithBad(v, bsz, bad)
					_, err := d.ForwardBatch(xs)
					return err
				},
			} {
				if err := run(); err == nil {
					t.Errorf("%s B=%d: input holding %v accepted", name, bsz, bad)
				}
			}
		}
	}
}

// batchWithBad returns bsz copies of x whose last sample holds bad in its
// second element.
func batchWithBad(x *tensor.Tensor, bsz int, bad float32) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, bsz)
	for j := range xs {
		xs[j] = x.Clone()
	}
	xs[bsz-1].Data()[1] = bad
	return xs
}
