// Package accuracy estimates a pruned model's TOP-1 test accuracy.
//
// Two evaluators exist. Trained actually retrains and tests the model on a
// synthetic dataset (used for tiny models in tests and examples, where the
// full prune→retrain→evaluate mechanism is exercised end to end).
// Calibrated reproduces the paper's accuracy-vs-pruning-rate behaviour for
// the paper-scale models, whose real training data (CIFAR-10, GTSRB) and
// GPU-days of retraining are unavailable here: baselines are the TOP-1
// values implied by the paper's Table I QoE figures, and the loss curve is
// anchored at the paper's reported −9.9 % at 25 % pruning for
// CNVW2A2/CIFAR-10 with a quadratic profile (filter pruning removes
// quadratically more computation, and accuracy follows).
//
// An evaluator whose estimate depends on nothing but channel counts
// implements ChannelEvaluator as well (Calibrated does, Trained does not).
// Library generation asks for that interface and, when it is there, never
// builds the pruned weights: it hands the evaluator the initial and
// pruned per-convolution channel counts instead of a model.
package accuracy

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/train"
)

// Evaluator estimates TOP-1 accuracy of a model in [0, 1].
type Evaluator interface {
	Accuracy(m *model.Model) (float64, error)
}

// ChannelEvaluator is implemented by evaluators that read only a model's
// channel counts. AccuracyOfChannels must return exactly what Accuracy
// returns for a model whose BaseChannels are base and whose convolutions
// have channels out-channels; it needs no weights to do so.
type ChannelEvaluator interface {
	AccuracyOfChannels(base, channels []int) (float64, error)
}

// Calibrated evaluates accuracy from the paper-calibrated curves.
type Calibrated struct {
	// Baseline is the unpruned TOP-1 accuracy in [0,1].
	Baseline float64
	// LinearLoss and QuadLoss define accuracy loss (in accuracy points,
	// 0–1 scale) as LinearLoss·p + QuadLoss·p² of the effective pruning
	// fraction p.
	LinearLoss float64
	QuadLoss   float64
	// Chance is the floor (1/classes).
	Chance float64
}

// calibration table: baselines derived from Table I (QoE = accuracy ×
// processed fraction, consistent across scenarios), curve anchored at the
// Fig. 5(b) point (−9.9 points at 25 % pruning).
var calibrations = map[string]Calibrated{
	"CNVW2A2/cifar10": {Baseline: 0.887, LinearLoss: 0.12, QuadLoss: 1.10, Chance: 0.10},
	"CNVW2A2/gtsrb":   {Baseline: 0.700, LinearLoss: 0.10, QuadLoss: 0.95, Chance: 1.0 / 43},
	"CNVW1A2/cifar10": {Baseline: 0.879, LinearLoss: 0.14, QuadLoss: 1.25, Chance: 0.10},
	"CNVW1A2/gtsrb":   {Baseline: 0.699, LinearLoss: 0.12, QuadLoss: 1.10, Chance: 1.0 / 43},
}

// NewCalibrated returns the calibrated evaluator for a paper model/dataset
// pair ("CNVW2A2"/"cifar10" etc.).
func NewCalibrated(modelName, ds string) (*Calibrated, error) {
	c, ok := calibrations[modelName+"/"+ds]
	if !ok {
		return nil, fmt.Errorf("accuracy: no calibration for %s/%s", modelName, ds)
	}
	return &c, nil
}

// EffectivePruneFraction returns the channel-weighted fraction of filters
// removed from m relative to its initial model. It fails when m has a
// different number of convolutions than BaseChannels entries.
func EffectivePruneFraction(m *model.Model) (float64, error) {
	return pruneFraction(m.BaseChannels, m.ConvChannels())
}

// pruneFraction is 1 − Σchannels/Σbase over convolutions, or 0 when base
// sums to zero (a model without convolutions).
func pruneFraction(base, channels []int) (float64, error) {
	if len(base) != len(channels) {
		return 0, fmt.Errorf("accuracy: %d base channel entries for %d convolutions", len(base), len(channels))
	}
	var b, cur int
	for i := range base {
		b += base[i]
		cur += channels[i]
	}
	if b == 0 {
		return 0, nil
	}
	return 1 - float64(cur)/float64(b), nil
}

// Accuracy implements Evaluator through AccuracyOfChannels.
func (c *Calibrated) Accuracy(m *model.Model) (float64, error) {
	return c.AccuracyOfChannels(m.BaseChannels, m.ConvChannels())
}

// AccuracyOfChannels implements ChannelEvaluator: the calibrated curve at
// the effective prune fraction of channels against base.
func (c *Calibrated) AccuracyOfChannels(base, channels []int) (float64, error) {
	p, err := pruneFraction(base, channels)
	if err != nil {
		return 0, err
	}
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("accuracy: effective prune fraction %v out of [0,1)", p)
	}
	return c.AccuracyAtRate(p), nil
}

// AccuracyAtRate evaluates the curve directly at an effective pruning
// fraction (used by plots that do not carry a model).
func (c *Calibrated) AccuracyAtRate(p float64) float64 {
	acc := c.Baseline - (c.LinearLoss*p + c.QuadLoss*p*p)
	if acc < c.Chance {
		acc = c.Chance
	}
	return acc
}

// Trained retrains a model on a synthetic dataset and reports measured
// test accuracy. This is the paper's retrain-for-40-epochs step scaled to
// synthetic data.
type Trained struct {
	Dataset *dataset.Dataset
	Opts    train.Options
}

// NewTrained builds a trained evaluator.
func NewTrained(ds *dataset.Dataset, opts train.Options) *Trained {
	return &Trained{Dataset: ds, Opts: opts}
}

// Accuracy implements Evaluator: it retrains the model in place (the
// paper retrains each pruned model before adding it to the library) and
// returns measured test accuracy.
func (t *Trained) Accuracy(m *model.Model) (float64, error) {
	tr, err := train.New(t.Opts)
	if err != nil {
		return 0, err
	}
	res, err := tr.Fit(m, t.Dataset)
	if err != nil {
		return 0, err
	}
	return res.TestAcc, nil
}
