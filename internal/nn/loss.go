package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the scalar loss and the gradient of the loss
// w.r.t. the logits for a single sample with integer label.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor, error) {
	n := logits.Len()
	if label < 0 || label >= n {
		return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d)", label, n)
	}
	ld := logits.Data()
	maxv := float64(math.Inf(-1))
	for _, v := range ld {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	var sum float64
	probs := make([]float64, n)
	for i, v := range ld {
		probs[i] = math.Exp(float64(v) - maxv)
		sum += probs[i]
	}
	grad := tensor.New(logits.Shape()...)
	gd := grad.Data()
	for i := range probs {
		probs[i] /= sum
		gd[i] = float32(probs[i])
	}
	gd[label] -= 1
	loss := -math.Log(math.Max(probs[label], 1e-12))
	return loss, grad, nil
}
