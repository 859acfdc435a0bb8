package nn

import (
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func quantConv(t *testing.T) *Conv2D {
	t.Helper()
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConv2D(ConvConfig{
		ID:   "c0",
		Geom: tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 4, Bias: true, WQuant: q,
		InitRNG: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConvQuantizedOnceAcrossInference is the regression test for the
// EffectiveWeights cache: two no-train forwards must run the weight
// quantizer exactly once, not once per inference.
func TestConvQuantizedOnceAcrossInference(t *testing.T) {
	c := quantConv(t)
	x := tensor.New(3, 8, 8)
	x.Fill(0.25)
	a, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.quantRuns != 1 {
		t.Fatalf("quantizer ran %d times across two no-train forwards, want 1", c.quantRuns)
	}
	if !equalTensors(a, b) {
		t.Fatal("cached weights changed the forward result")
	}
	// A weight edit plus version bump must invalidate the cache...
	c.Weight.Value.Data()[0] += 1
	c.Weight.BumpVersion()
	if _, err := c.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if c.quantRuns != 2 {
		t.Fatalf("quantizer ran %d times after a weight bump, want 2", c.quantRuns)
	}
	// ...and swapping in a whole new Param does too, even without a bump.
	c.Weight = newParam(c.Weight.Name, c.Weight.Value.Clone())
	if _, err := c.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if c.quantRuns != 3 {
		t.Fatalf("quantizer ran %d times after a Param swap, want 3", c.quantRuns)
	}
}

// TestDenseQuantizedOnceAcrossInference covers the same cache on Dense.
func TestDenseQuantizedOnceAcrossInference(t *testing.T) {
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "d0", In: 12, Out: 5, Bias: true, WQuant: q,
		InitRNG: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(12)
	x.Fill(0.5)
	a, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.quantRuns != 1 {
		t.Fatalf("quantizer ran %d times across two no-train forwards, want 1", d.quantRuns)
	}
	if !equalTensors(a, b) {
		t.Fatal("cached weights changed the forward result")
	}
	d.Weight.Value.Data()[0] += 1
	d.Weight.BumpVersion()
	if _, err := d.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if d.quantRuns != 2 {
		t.Fatalf("quantizer ran %d times after a weight bump, want 2", d.quantRuns)
	}
}

// TestConvTrainStepInvalidatesCache walks the forward/backward/update cycle
// by hand and checks a bumped version re-quantizes, so training never sees
// stale weights.
func TestConvTrainStepInvalidatesCache(t *testing.T) {
	c := quantConv(t)
	x := tensor.New(3, 8, 8)
	x.Fill(0.1)
	out, err := c.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.New(out.Shape()...)
	grad.Fill(0.01)
	if _, err := c.Backward(grad); err != nil {
		t.Fatal(err)
	}
	// Imitate an optimizer step.
	for i, g := range c.Weight.Grad.Data() {
		c.Weight.Value.Data()[i] -= 0.1 * g
	}
	c.Weight.BumpVersion()
	before := c.quantRuns
	if _, err := c.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if c.quantRuns != before+1 {
		t.Fatalf("quantizer ran %d times after an optimizer step, want %d", c.quantRuns, before+1)
	}
}

// TestConvForwardBackwardScratchReuse runs many forward/backward cycles to
// shake out use-after-release bugs in the pooled im2col scratch: results
// must stay identical cycle over cycle.
func TestConvForwardBackwardScratchReuse(t *testing.T) {
	c := quantConv(t)
	x := tensor.New(3, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(i%17)*0.1 - 0.8
	}
	first, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		out, err := c.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTensors(out, first) {
			t.Fatalf("inference result drifted on cycle %d", i)
		}
	}
	var firstDx *tensor.Tensor
	for i := 0; i < 10; i++ {
		out, err := c.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		grad := tensor.New(out.Shape()...)
		grad.Fill(0.5)
		dx, err := c.Backward(grad)
		if err != nil {
			t.Fatal(err)
		}
		if firstDx == nil {
			firstDx = dx
		} else if !equalTensors(dx, firstDx) {
			t.Fatalf("backward result drifted on cycle %d", i)
		}
	}
}

// TestConvBitplanesRepackedOnBump: the bit planes are the int8 weight
// cache, so a weight edit plus BumpVersion must repack them, and the next
// forward must match a clone of the edited layer, whose caches are cold.
func TestConvBitplanesRepackedOnBump(t *testing.T) {
	forceInt8(t)
	c := quantConv(t)
	x := tensor.New(3, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(i%4) * 0.5 // a 2-bit activation grid
	}
	if _, err := c.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	before := c.effWB
	if before == nil || c.intForwards != 1 {
		t.Fatalf("planes %v, %d integer forwards; want planes and 1", before, c.intForwards)
	}
	c.Weight.Value.Data()[0] = -c.Weight.Value.Data()[0]
	c.Weight.BumpVersion()
	got, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.effWB == before || c.quantRuns != 2 || c.intForwards != 2 {
		t.Fatalf("after a bump: planes repacked %v, %d quantizer runs, %d integer forwards; want true, 2, 2",
			c.effWB != before, c.quantRuns, c.intForwards)
	}
	want, err := c.CloneLayer().Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTensors(got, want) {
		t.Fatal("forward after a bump differs from a cold clone of the edited layer")
	}
}
