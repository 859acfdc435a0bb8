package dataset

import (
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// equalTensors reports whether two tensors have identical shape and
// elements.
func equalTensors(a, b *tensor.Tensor) bool {
	return slices.Equal(a.Shape(), b.Shape()) && slices.Equal(a.Data(), b.Data())
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", Classes: 1, C: 3, H: 8, W: 8, Train: 10, Test: 10},
		{Name: "b", Classes: 2, C: 0, H: 8, W: 8, Train: 10, Test: 10},
		{Name: "c", Classes: 2, C: 3, H: 8, W: 8, Train: 0, Test: 10},
		{Name: "d", Classes: 2, C: 3, H: 8, W: 8, Train: 10, Test: 0},
		{Name: "e", Classes: 2, C: 3, H: 8, W: 8, Train: 10, Test: 10, Noise: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestDeterministicSamples(t *testing.T) {
	a := TinyDataset(7)
	b := TinyDataset(7)
	xa, la := a.TrainSample(13)
	xb, lb := b.TrainSample(13)
	if la != lb || !equalTensors(xa, xb) {
		t.Fatal("same seed/index gave different samples")
	}
	c := TinyDataset(8)
	xc, _ := c.TrainSample(13)
	if equalTensors(xa, xc) {
		t.Fatal("different seeds gave identical samples")
	}
}

func TestTrainTestSplitsDiffer(t *testing.T) {
	d := TinyDataset(1)
	xtr, _ := d.TrainSample(0)
	xte, _ := d.TestSample(0)
	if equalTensors(xtr, xte) {
		t.Fatal("train and test sample 0 identical")
	}
}

func TestLabelsCycleThroughClasses(t *testing.T) {
	d := TinyDataset(1)
	seen := map[int]int{}
	for i := 0; i < d.Train; i++ {
		_, l := d.TrainSample(i)
		if l < 0 || l >= d.Classes {
			t.Fatalf("label %d out of range", l)
		}
		seen[l]++
	}
	if len(seen) != d.Classes {
		t.Fatalf("only %d of %d classes appear", len(seen), d.Classes)
	}
	// Balanced by construction.
	for l, n := range seen {
		if n != d.Train/d.Classes {
			t.Fatalf("class %d has %d samples, want %d", l, n, d.Train/d.Classes)
		}
	}
}

func TestSampleShapeAndFiniteness(t *testing.T) {
	d := SyntheticCIFAR10(1)
	x, _ := d.TrainSample(0)
	if x.Dim(0) != 3 || x.Dim(1) != 32 || x.Dim(2) != 32 {
		t.Fatalf("shape %v", x.Shape())
	}
	for _, v := range x.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite pixel")
		}
	}
	if d.C != 3 || d.H != 32 || d.W != 32 {
		t.Fatalf("sample shape %dx%dx%d, want 3x32x32", d.C, d.H, d.W)
	}
}

func TestGTSRBHas43Classes(t *testing.T) {
	d := SyntheticGTSRB(1)
	if d.Classes != 43 {
		t.Fatalf("classes = %d", d.Classes)
	}
}

// Signal check: samples of the same class correlate more with each other
// than with other classes on average, so the task is learnable.
func TestClassSignalExists(t *testing.T) {
	d := TinyDataset(3)
	corr := func(a, b *tensor.Tensor) float64 {
		var s float64
		for i := range a.Data() {
			s += float64(a.Data()[i]) * float64(b.Data()[i])
		}
		return s
	}
	var same, diff float64
	var sn, dn int
	for i := 0; i < 40; i++ {
		xi, li := d.TrainSample(i)
		for j := i + 1; j < 40; j++ {
			xj, lj := d.TrainSample(j)
			c := corr(xi, xj)
			if li == lj {
				same += c
				sn++
			} else {
				diff += c
				dn++
			}
		}
	}
	if same/float64(sn) <= diff/float64(dn) {
		t.Fatalf("no class signal: same=%v diff=%v", same/float64(sn), diff/float64(dn))
	}
}
