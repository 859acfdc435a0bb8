// Package train implements the SGD training loop AdaFlow's Library
// Generator uses to retrain pruned models, with the paper's augmentation
// recipe (pad, random crop, horizontal flip) and step learning-rate decay.
package train

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Options control a training run. The defaults mirror the paper's retraining
// setup scaled to synthetic data: LR 0.001 with decay 0.1.
type Options struct {
	Epochs    int
	LR        float64
	Momentum  float64
	LRDecay   float64 // multiplicative decay applied at each DecayEvery epochs
	DecayEver int     // epochs between decays; 0 = never
	BatchSize int     // gradient accumulation window
	Augment   bool
	Samples   int // training samples per epoch; 0 = whole train split
	Seed      int64
	// Patience enables early stopping: training stops after this many
	// epochs without improvement on a held-out validation slice (taken
	// from the end of the train split, never the test split). 0 disables.
	Patience int
	// EvalWorkers sets how many goroutines evaluate the test split at the
	// end of Fit (via ParallelEvaluate, which is prediction-exact). 0 or 1
	// evaluates serially.
	EvalWorkers int
}

// DefaultOptions returns the paper-flavored defaults used by tests and the
// trained-evaluator path.
func DefaultOptions() Options {
	return Options{
		Epochs:    4,
		LR:        0.01,
		Momentum:  0.9,
		LRDecay:   0.1,
		DecayEver: 3,
		BatchSize: 8,
		Augment:   true,
		Seed:      1,
	}
}

// Result summarizes a training run.
type Result struct {
	Epochs    int // epochs actually run (≤ Options.Epochs with Patience)
	FinalLoss float64
	TrainAcc  float64
	TestAcc   float64
	// BestValAcc is the best held-out validation accuracy observed (only
	// meaningful with Patience > 0).
	BestValAcc float64
}

// Trainer runs SGD with momentum over a synthetic dataset.
type Trainer struct {
	opts Options
	vel  map[*nn.Param][]float32
}

// New returns a trainer with the given options.
func New(opts Options) (*Trainer, error) {
	switch {
	case opts.Epochs <= 0:
		return nil, fmt.Errorf("train: non-positive epochs %d", opts.Epochs)
	case opts.LR <= 0:
		return nil, fmt.Errorf("train: non-positive learning rate %v", opts.LR)
	case opts.Momentum < 0 || opts.Momentum >= 1:
		return nil, fmt.Errorf("train: momentum %v out of [0,1)", opts.Momentum)
	case opts.BatchSize <= 0:
		return nil, fmt.Errorf("train: non-positive batch size %d", opts.BatchSize)
	}
	return &Trainer{opts: opts, vel: map[*nn.Param][]float32{}}, nil
}

// Fit trains the model on the dataset's train split and returns a summary
// including test accuracy.
func (t *Trainer) Fit(m *model.Model, ds *dataset.Dataset) (*Result, error) {
	rng := rand.New(sim.NewSource(t.opts.Seed))
	lr := t.opts.LR
	n := ds.Train
	if t.opts.Samples > 0 && t.opts.Samples < n {
		n = t.opts.Samples
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Validation slice for early stopping: the tail of the train split,
	// after the training window.
	valStart, valEnd := 0, 0
	if t.opts.Patience > 0 {
		valStart = n
		valEnd = valStart + n/4
		if valEnd > ds.Train {
			valEnd = ds.Train
		}
		if valEnd <= valStart {
			return nil, fmt.Errorf("train: no samples left for validation (train=%d, used=%d)", ds.Train, n)
		}
	}
	bestVal := -1.0
	sinceBest := 0
	epochsRun := 0
	var lastLoss float64
	for epoch := 0; epoch < t.opts.Epochs; epoch++ {
		epochsRun++
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		batch := 0
		m.Net.ZeroGrad()
		for _, idx := range order {
			x, label := ds.TrainSample(idx)
			if t.opts.Augment {
				x = Augment(x, rng)
			}
			out, err := m.Net.Forward(x, true)
			if err != nil {
				return nil, err
			}
			loss, grad, err := nn.SoftmaxCrossEntropy(out, label)
			if err != nil {
				return nil, err
			}
			epochLoss += loss
			if err := m.Net.Backward(grad); err != nil {
				return nil, err
			}
			batch++
			if batch == t.opts.BatchSize {
				t.step(m.Net, lr, batch)
				m.Net.ZeroGrad()
				batch = 0
			}
		}
		if batch > 0 {
			t.step(m.Net, lr, batch)
			m.Net.ZeroGrad()
		}
		lastLoss = epochLoss / float64(len(order))
		if t.opts.DecayEver > 0 && (epoch+1)%t.opts.DecayEver == 0 {
			lr *= t.opts.LRDecay
		}
		if t.opts.Patience > 0 {
			val, err := accuracy(m.Net, ds.TrainSample, valStart, valEnd)
			if err != nil {
				return nil, err
			}
			if val > bestVal {
				bestVal = val
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= t.opts.Patience {
					break
				}
			}
		}
	}
	trainAcc, err := accuracy(m.Net, ds.TrainSample, 0, n)
	if err != nil {
		return nil, err
	}
	evalWorkers := t.opts.EvalWorkers
	if evalWorkers < 1 {
		evalWorkers = 1
	}
	testAcc, err := ParallelEvaluate(m, ds, evalWorkers)
	if err != nil {
		return nil, err
	}
	return &Result{
		Epochs: epochsRun, FinalLoss: lastLoss,
		TrainAcc: trainAcc, TestAcc: testAcc, BestValAcc: bestVal,
	}, nil
}

// evalBatch is the batch size of the accuracy loops: PredictBatch pays its
// per-call costs once per batch.
const evalBatch = 32

// accuracy returns TOP-1 accuracy on samples [lo, hi) of sample.
func accuracy(net *nn.Network, sample func(int) (*tensor.Tensor, int), lo, hi int) (float64, error) {
	if hi <= lo {
		return 0, fmt.Errorf("train: empty evaluation range [%d,%d)", lo, hi)
	}
	correct, err := countCorrect(net, sample, lo, hi)
	if err != nil {
		return 0, err
	}
	return float64(correct) / float64(hi-lo), nil
}

// countCorrect returns how many of samples [lo, hi) of sample net
// classifies right, predicting evalBatch samples per PredictBatch call.
// The predictions are per-sample Predict's, by ForwardBatch's contract.
func countCorrect(net *nn.Network, sample func(int) (*tensor.Tensor, int), lo, hi int) (int, error) {
	xs := make([]*tensor.Tensor, 0, evalBatch)
	labels := make([]int, 0, evalBatch)
	correct := 0
	for b := lo; b < hi; b += evalBatch {
		xs, labels = xs[:0], labels[:0]
		for i := b; i < min(b+evalBatch, hi); i++ {
			x, label := sample(i)
			xs, labels = append(xs, x), append(labels, label)
		}
		preds, err := net.PredictBatch(xs)
		if err != nil {
			return 0, err
		}
		for j, pred := range preds {
			if pred == labels[j] {
				correct++
			}
		}
	}
	return correct, nil
}

// step applies one SGD-with-momentum update scaled by 1/batch.
func (t *Trainer) step(net *nn.Network, lr float64, batch int) {
	scale := float32(lr) / float32(batch)
	for _, p := range net.Params() {
		v, ok := t.vel[p]
		if !ok || len(v) != p.Value.Len() {
			v = make([]float32, p.Value.Len())
			t.vel[p] = v
		}
		mom := float32(t.opts.Momentum)
		pv, pg := p.Value.Data(), p.Grad.Data()
		for i := range pv {
			v[i] = mom*v[i] - scale*pg[i]
			pv[i] += v[i]
		}
		// Invalidate the layers' derived-weight caches (quantized GEMM
		// matrices) now that the weights moved.
		p.BumpVersion()
	}
}

// Evaluate returns TOP-1 accuracy on the dataset's test split, in [0,1].
func Evaluate(m *model.Model, ds *dataset.Dataset) (float64, error) {
	return accuracy(m.Net, ds.TestSample, 0, ds.Test)
}

// ParallelEvaluate computes TOP-1 test accuracy with several workers. The
// layers' forward caches make a Network unsafe to share, so each worker
// evaluates on its own clone; results are exact (same predictions as
// Evaluate), only wall-clock changes.
func ParallelEvaluate(m *model.Model, ds *dataset.Dataset, workers int) (float64, error) {
	if workers <= 0 {
		return 0, fmt.Errorf("train: non-positive worker count %d", workers)
	}
	if workers == 1 {
		return Evaluate(m, ds)
	}
	n := ds.Test
	if n <= 0 {
		return 0, fmt.Errorf("train: empty evaluation split")
	}
	type res struct {
		correct int
		err     error
	}
	results := make(chan res, workers)
	for w := 0; w < workers; w++ {
		clone, err := m.Clone()
		if err != nil {
			return 0, err
		}
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(mm *model.Model, lo, hi int) {
			correct, err := countCorrect(mm.Net, ds.TestSample, lo, hi)
			results <- res{correct, err}
		}(clone, lo, hi)
	}
	total := 0
	for w := 0; w < workers; w++ {
		r := <-results
		if r.err != nil {
			return 0, r.err
		}
		total += r.correct
	}
	return float64(total) / float64(n), nil
}

// Augment applies the paper's augmentation: pad by 1 with zeros, random
// crop back to size, and a coin-flip horizontal flip.
func Augment(x *tensor.Tensor, rng *rand.Rand) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	const pad = 1
	dy := rng.Intn(2*pad+1) - pad
	dx := rng.Intn(2*pad+1) - pad
	flip := rng.Intn(2) == 1
	out := tensor.New(c, h, w)
	xd, od := x.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			sy := y + dy
			if sy < 0 || sy >= h {
				continue
			}
			for xx := 0; xx < w; xx++ {
				sx := xx + dx
				if sx < 0 || sx >= w {
					continue
				}
				tx := xx
				if flip {
					tx = w - 1 - xx
				}
				od[(ch*h+y)*w+tx] = xd[(ch*h+sy)*w+sx]
			}
		}
	}
	return out
}
