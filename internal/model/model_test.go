package model

import (
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// equalTensors reports whether two tensors have identical shape and
// elements.
func equalTensors(a, b *tensor.Tensor) bool {
	return slices.Equal(a.Shape(), b.Shape()) && slices.Equal(a.Data(), b.Data())
}

func TestCNVW2A2Topology(t *testing.T) {
	m, err := CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	convs := m.Net.Convs()
	if len(convs) != 6 {
		t.Fatalf("convs = %d, want 6", len(convs))
	}
	wantC := []int{64, 64, 128, 128, 256, 256}
	for i, c := range convs {
		if c.OutC != wantC[i] {
			t.Fatalf("conv%d OutC = %d, want %d", i, c.OutC, wantC[i])
		}
	}
	if got := m.ConvChannels(); len(got) != 6 || got[5] != 256 {
		t.Fatalf("ConvChannels = %v", got)
	}
	denses := m.Net.Denses()
	if len(denses) != 3 {
		t.Fatalf("denses = %d, want 3", len(denses))
	}
	if denses[2].Out != 10 {
		t.Fatalf("head out = %d", denses[2].Out)
	}
	// CNV: 32→30→28→pool 14→12→10→pool 5→3→1, so fc0 in = 256.
	if denses[0].In != 256 {
		t.Fatalf("fc0 in = %d, want 256", denses[0].In)
	}
}

func TestShapePropagation(t *testing.T) {
	m, err := CNVW1A2("gtsrb", 43, 1)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		t.Fatal(err)
	}
	last := shapes[len(shapes)-1]
	if len(last) != 1 || last[0] != 43 {
		t.Fatalf("final shape %v", last)
	}
}

func TestTinyCNVForward(t *testing.T) {
	m, err := TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Net.Forward(tensor.New(3, 8, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("out len = %d", out.Len())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{Name: "x", Classes: 10}); err == nil {
		t.Fatal("no convolutions accepted")
	}
	if _, err := Build(Config{Name: "x", Classes: 1, ConvChannels: []int{4}, InC: 1, InH: 8, InW: 8}); err == nil {
		t.Fatal("1 class accepted")
	}
	if _, err := Build(Config{
		Name: "x", Classes: 4, ConvChannels: []int{4}, PoolAfter: []int{5},
		InC: 1, InH: 8, InW: 8,
	}); err == nil {
		t.Fatal("out-of-range PoolAfter accepted")
	}
	if _, err := Build(Config{
		Name: "x", Classes: 4, WBits: 99, ConvChannels: []int{4},
		InC: 1, InH: 8, InW: 8,
	}); err == nil {
		t.Fatal("bad weight bits accepted")
	}
}

// TestMixedPrecisionInputLayer: an 8-bit input layer in front of a 2-bit
// body — the first conv carries its own quantizer and the dataflow mapper
// sees the wider weights (more LUTs for that module).
func TestMixedPrecisionInputLayer(t *testing.T) {
	mixed, err := Build(Config{
		Name: "mixed", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{8, 16}, PoolAfter: []int{1}, DenseSizes: []int{32},
		InputWBits: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	convs := mixed.Net.Convs()
	if convs[0].Quant.Bits != 8 {
		t.Fatalf("conv0 bits = %d, want 8", convs[0].Quant.Bits)
	}
	if convs[1].Quant.Bits != 2 {
		t.Fatalf("conv1 bits = %d, want 2", convs[1].Quant.Bits)
	}
	// The mixed model still runs and clones.
	out, err := mixed.Net.Forward(tensor.New(3, 8, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("out = %d", out.Len())
	}
	c, err := mixed.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if c.Net.Convs()[0].Quant.Bits != 8 {
		t.Fatal("clone lost the input quantizer")
	}
	if _, err := Build(Config{
		Name: "bad", Dataset: "d", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{8}, InputWBits: 99,
	}); err == nil {
		t.Fatal("bad input bits accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, err := TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate clone weights; original must not change.
	w := c.Net.Convs()[0].Weight.Value
	orig := m.Net.Convs()[0].Weight.Value.At(0, 0, 0, 0)
	w.Data()[0] = orig + 42 // (0, 0, 0, 0)
	if m.Net.Convs()[0].Weight.Value.At(0, 0, 0, 0) != orig {
		t.Fatal("clone shares weights with original")
	}
	// Same forward results before mutation on a fresh clone.
	c2, _ := m.Clone()
	x := tensor.New(3, 8, 8)
	x.Fill(0.5)
	a, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTensors(a, b) {
		t.Fatal("clone computes different outputs")
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, _ := TinyCNV("t", "d", 2, 4, 99)
	b, _ := TinyCNV("t", "d", 2, 4, 99)
	if !equalTensors(a.Net.Convs()[0].Weight.Value, b.Net.Convs()[0].Weight.Value) {
		t.Fatal("same seed built different weights")
	}
}

func TestKey(t *testing.T) {
	m, _ := TinyCNV("CNVW2A2", "cifar10", 2, 4, 1)
	m.PruneRate = 0.25
	if m.Key() != "CNVW2A2/cifar10/p25" {
		t.Fatalf("Key = %q", m.Key())
	}
}
