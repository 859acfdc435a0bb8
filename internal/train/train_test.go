package train

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tensor"
)

func TestNewValidation(t *testing.T) {
	bad := []Options{
		{Epochs: 0, LR: 0.1, BatchSize: 1},
		{Epochs: 1, LR: 0, BatchSize: 1},
		{Epochs: 1, LR: 0.1, Momentum: 1.0, BatchSize: 1},
		{Epochs: 1, LR: 0.1, BatchSize: 0},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

// TestTrainingLearnsTinyTask is the key integration test of the training
// substrate: a tiny quantized CNV must beat chance comfortably after a few
// epochs on the synthetic dataset.
func TestTrainingLearnsTinyTask(t *testing.T) {
	ds := dataset.TinyDataset(5)
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Epochs = 3
	opts.Samples = 120
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Fit(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(ds.Classes)
	if res.TestAcc < 2*chance {
		t.Fatalf("test accuracy %.3f did not beat 2x chance (%.3f)", res.TestAcc, 2*chance)
	}
}

func TestEvaluateRange(t *testing.T) {
	ds := dataset.TinyDataset(5)
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

func TestEarlyStopping(t *testing.T) {
	ds := dataset.TinyDataset(5)
	m, err := model.TinyCNV("tiny", ds.Name, 0, ds.Classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Epochs = 30 // far more than the easy task needs
	opts.Samples = 100
	opts.Patience = 2
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Fit(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= 30 {
		t.Fatalf("early stopping never fired: ran %d epochs", res.Epochs)
	}
	if res.BestValAcc <= 0.5 {
		t.Fatalf("validation accuracy %.2f suspiciously low", res.BestValAcc)
	}
	if res.TestAcc < 0.5 {
		t.Fatalf("early-stopped model underfit: test %.2f", res.TestAcc)
	}
}

func TestEarlyStoppingNeedsValidationSlice(t *testing.T) {
	ds := dataset.TinyDataset(5)
	m, err := model.TinyCNV("tiny", ds.Name, 0, ds.Classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Patience = 1
	opts.Samples = 0 // whole split used for training → nothing for val
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(m, ds); err == nil {
		t.Fatal("training with no validation slice accepted")
	}
}

func TestParallelEvaluateMatchesSerial(t *testing.T) {
	ds := dataset.TinyDataset(5)
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		par, err := ParallelEvaluate(m, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par != serial {
			t.Fatalf("workers=%d: %v != %v", workers, par, serial)
		}
	}
	if _, err := ParallelEvaluate(m, ds, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestAugmentPreservesShapeAndValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(3, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	y := Augment(x, rng)
	if y.Dim(0) != 3 || y.Dim(1) != 8 || y.Dim(2) != 8 {
		t.Fatalf("augment changed shape to %v", y.Shape())
	}
	// Every non-zero output value must exist somewhere in the input
	// (augmentation only moves pixels and zero-pads).
	in := map[float32]bool{}
	for _, v := range x.Data() {
		in[v] = true
	}
	for _, v := range y.Data() {
		if v != 0 && !in[v] {
			t.Fatal("augment invented a pixel value")
		}
	}
}

func TestAugmentDeterministicPerRNG(t *testing.T) {
	x := tensor.New(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	a := Augment(x, rand.New(rand.NewSource(1)))
	b := Augment(x, rand.New(rand.NewSource(1)))
	if !slices.Equal(a.Shape(), b.Shape()) || !slices.Equal(a.Data(), b.Data()) {
		t.Fatal("same RNG seed produced different augmentations")
	}
}
