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
// reach it. It has two entries, float samples or ladder levels, and two
// exits, floats or, when a ScaleShift → QuantAct follows, their levels
// (stage.go); Forward and a layer's own ForwardBatch take it float in,
// float out. It is on by default for every layer whose weight grid fits
// int8 codes (bit width ≤ 8); wider grids and training always use the
// float body, which the backward pass and the dataflow compiler consume.
// Call SetInt8GEMM(false) to force the float body at inference time too,
// e.g. when bisecting a numeric difference between the two bodies;
// ForwardBatch then runs layer by layer on floats, and the compiled
// dataflow programs, which run these layers, follow the switch.
//
// Layers whose weight codes are all in {−1, 0, 1} (W1 and W2 grids) also
// get their codes as bit planes from the weight cache, and a batch whose
// int8 activation codes decompose into two planes ({0, c1, c2, c1+c2}, as
// 2-bit activations do) runs on tensor.ConvBitplaneBatchInto: AND and
// popcount instead of multiply-add, the same int32 sums, the same outputs
// bit for bit. A Dense layer runs there as a 1×1 convolution over one
// pixel. forwardInt8 makes that choice.
//
// Around the kernels, the float passes round without math.Round. Each
// layer's int8 input codes come from quant.QuantizeSymmetricInt8, or, for
// levels, from the same expression (quant.SymmetricInt8Codes) applied to
// each level's value; its quant.RoundHalfAway is the branch-free
// float32(math.Trunc(float64(v) + math.Copysign(0.5, float64(v)))), equal
// to math.Round's result bit for bit. QuantAct reads the exact threshold
// ladder that quant.NewActQuantizer builds from Bits and Max: 2^bits
// float32 edges found by bisection, each bin valued by Quantize itself,
// so counting the edges at or below an input, with no divide and no
// rounding, gives Quantize's result bit for bit. Bits and Max are
// therefore read-only after NewActQuantizer, and cloned layers share the
// ladder without a lock. internal/compile and ForwardBatch's level
// epilogue fold ScaleShift into the same ladder with
// quant.ActQuantizer.AffineLadder, which searches float32 accumulators
// rather than mapping edges through (t−β)/γ, so both match this engine's
// unfolded ScaleShift → QuantAct code for code, on either body.

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
