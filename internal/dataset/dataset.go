// Package dataset provides deterministic synthetic image-classification
// datasets standing in for CIFAR-10 and GTSRB, which are not available in
// this offline environment (see DESIGN.md, substitutions).
//
// Images are procedural: each class is a distinct oriented grating with a
// class-dependent color cast, corrupted by seeded per-sample noise and
// random phase. The signal-to-noise ratio is tuned so that small CNNs can
// learn the task in a few epochs while pruning them measurably degrades
// accuracy — the property the AdaFlow experiments depend on.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// Dataset is a deterministic, indexable synthetic dataset. Samples are
// generated on demand; two datasets with the same parameters and seed yield
// identical samples.
type Dataset struct {
	Name    string
	Classes int
	C, H, W int
	Train   int // number of training samples
	Test    int // number of test samples
	Noise   float64
	seed    int64
}

// Config controls synthetic dataset generation.
type Config struct {
	Name    string
	Classes int
	C, H, W int
	Train   int
	Test    int
	Noise   float64 // std-dev of additive Gaussian noise
	Seed    int64
}

// New builds a synthetic dataset.
func New(cfg Config) (*Dataset, error) {
	switch {
	case cfg.Classes < 2:
		return nil, fmt.Errorf("dataset %q: need at least 2 classes, got %d", cfg.Name, cfg.Classes)
	case cfg.C <= 0 || cfg.H <= 0 || cfg.W <= 0:
		return nil, fmt.Errorf("dataset %q: non-positive shape %dx%dx%d", cfg.Name, cfg.C, cfg.H, cfg.W)
	case cfg.Train <= 0 || cfg.Test <= 0:
		return nil, fmt.Errorf("dataset %q: non-positive sizes train=%d test=%d", cfg.Name, cfg.Train, cfg.Test)
	case cfg.Noise < 0:
		return nil, fmt.Errorf("dataset %q: negative noise %v", cfg.Name, cfg.Noise)
	}
	return &Dataset{
		Name:    cfg.Name,
		Classes: cfg.Classes,
		C:       cfg.C, H: cfg.H, W: cfg.W,
		Train: cfg.Train, Test: cfg.Test,
		Noise: cfg.Noise,
		seed:  cfg.Seed,
	}, nil
}

// SyntheticCIFAR10 is a 10-class, 3x32x32 stand-in for CIFAR-10.
func SyntheticCIFAR10(seed int64) *Dataset {
	d, err := New(Config{
		Name: "cifar10-syn", Classes: 10, C: 3, H: 32, W: 32,
		Train: 2000, Test: 500, Noise: 0.45, Seed: seed,
	})
	if err != nil {
		panic(err) // static config cannot fail
	}
	return d
}

// SyntheticGTSRB is a 43-class, 3x32x32 stand-in for the German Traffic
// Sign Recognition Benchmark resized to CIFAR resolution, as in the paper.
func SyntheticGTSRB(seed int64) *Dataset {
	d, err := New(Config{
		Name: "gtsrb-syn", Classes: 43, C: 3, H: 32, W: 32,
		Train: 4300, Test: 860, Noise: 0.55, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return d
}

// TinyDataset is a small, fast dataset for unit and integration tests:
// 4 classes of 3x8x8 images.
func TinyDataset(seed int64) *Dataset {
	d, err := New(Config{
		Name: "tiny-syn", Classes: 4, C: 3, H: 8, W: 8,
		Train: 160, Test: 80, Noise: 0.25, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return d
}

// TrainSample returns training sample i and its label.
func (d *Dataset) TrainSample(i int) (*tensor.Tensor, int) {
	return d.sample(i, 0)
}

// TestSample returns test sample i and its label.
func (d *Dataset) TestSample(i int) (*tensor.Tensor, int) {
	return d.sample(i, 1)
}

// sample deterministically generates sample i of the given split.
func (d *Dataset) sample(i, split int) (*tensor.Tensor, int) {
	label := i % d.Classes
	mix := uint64(d.seed) ^ uint64(split)<<40 ^ uint64(i)*0x9E3779B97F4A7C15
	rng := rand.New(sim.NewSource(int64(mix)))
	x := tensor.New(d.C, d.H, d.W)

	// Class-dependent grating: orientation and frequency encode the class.
	angle := 2 * math.Pi * float64(label) / float64(d.Classes)
	freq := 1.5 + 2.5*float64(label%5)/5
	phase := rng.Float64() * 2 * math.Pi
	kx := math.Cos(angle) * freq
	ky := math.Sin(angle) * freq

	// Class-dependent color cast per channel.
	cast := make([]float64, d.C)
	for c := range cast {
		cast[c] = 0.3 * math.Sin(2*math.Pi*float64(label*(c+1))/float64(d.Classes)+float64(c))
	}

	data := x.Data()
	for c := 0; c < d.C; c++ {
		for y := 0; y < d.H; y++ {
			for xx := 0; xx < d.W; xx++ {
				u := float64(xx)/float64(d.W)*2 - 1
				v := float64(y)/float64(d.H)*2 - 1
				s := math.Sin(2*math.Pi*(kx*u+ky*v) + phase)
				val := 0.5*s + cast[c] + rng.NormFloat64()*d.Noise
				data[(c*d.H+y)*d.W+xx] = float32(val)
			}
		}
	}
	return x, label
}
