package nn

import (
	"sync/atomic"

	"repro/internal/quant"
)

// The integer fast path: quantized layers run inference as int8×int8
// products with exact integer accumulation and a single float rescale at
// the output (tensor.ConvInt8BatchInto / tensor.GemmInt8Into) instead of
// dequantizing weights to float. Each of Conv2D and Dense has one integer
// forward body, forwardInt8, over a batch; Forward and ForwardBatch both
// reach it. It is on by default for every layer whose weight grid fits
// int8 codes (bit width ≤ 8); wider grids and training always use the
// float body, which the backward pass and the dataflow compiler consume.
// Call SetInt8GEMM(false) to force the float body at inference time too,
// e.g. when bisecting a numeric difference against the compiled dataflow
// programs.
//
// Convolutions whose weight codes are all in {−1, 0, 1} (W1 and W2 grids)
// also get their codes as bit planes from the weight cache, and a batch
// whose int8 activation codes decompose into two planes ({0, c1, c2,
// c1+c2}, as 2-bit activations do) runs on tensor.ConvBitplaneBatchInto:
// AND and popcount instead of multiply-add, the same int32 sums, the same
// outputs bit for bit. Conv2D.forwardInt8 makes that choice.

// floatGEMM is the inverted switch, so the zero value selects the int8 path.
var floatGEMM atomic.Bool

// SetInt8GEMM enables or disables the integer inference fast path for
// quantized layers, returning the previous setting. Safe for concurrent
// use; in-flight forwards keep the path they chose.
func SetInt8GEMM(on bool) bool {
	return !floatGEMM.Swap(!on)
}

// Int8GEMMEnabled reports whether quantized layers take the integer fast
// path at inference time.
func Int8GEMMEnabled() bool { return !floatGEMM.Load() }

// useInt8 reports whether inference forwards of a layer whose weights q
// quantizes (nil for float weights) take the integer fast path.
func useInt8(q *quant.WeightQuantizer) bool {
	return q != nil && q.Int8Capable() && Int8GEMMEnabled()
}
