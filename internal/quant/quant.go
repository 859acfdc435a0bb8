// Package quant implements the quantization machinery used by FINN-style
// quantized CNNs: uniform signed weight quantizers (the W1/W2 in model names
// such as CNVW2A2) and multi-threshold activation units (the A2), plus the
// straight-through estimators quantization-aware training relies on.
//
// FINN networks never compute a float activation at inference time; instead
// each layer's accumulator is compared against a ladder of thresholds and
// the activation is the count of thresholds crossed. Package quant provides
// both the training-time view (fake-quantized floats) and the
// threshold-ladder view consumed by internal/finn.
package quant

import (
	"fmt"
	"math"
)

// WeightQuantizer maps float weights onto a signed uniform grid with the
// given bit width, symmetric around zero. Bits must be ≥ 1; Bits == 1 means
// binary weights {-scale, +scale} as in FINN's W1 networks.
type WeightQuantizer struct {
	Bits  int
	Scale float32 // grid step; must be > 0
}

// NewWeightQuantizer returns a quantizer with the given bit width and a
// scale chosen so the grid spans roughly [-1, 1].
func NewWeightQuantizer(bits int) (*WeightQuantizer, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("quant: weight bit width %d out of range [1,16]", bits)
	}
	levels := wLevels(bits)
	return &WeightQuantizer{Bits: bits, Scale: 1 / float32(levels)}, nil
}

// wLevels returns the number of positive levels of a signed grid of the
// given width: 2^(n-1)−1 for n bits, so 2-bit grids are {−1, 0, +1}. A
// 1-bit grid is the exception, {−1, +1}: one positive level and no zero.
func wLevels(bits int) int {
	if bits == 1 {
		return 1
	}
	return (1 << (bits - 1)) - 1
}

// Levels returns the number of positive levels in the grid.
func (q *WeightQuantizer) Levels() int { return wLevels(q.Bits) }

// RoundHalfAway rounds to the nearest integer with halves away from zero
// (2.5 → 3, -2.5 → -3). This is the single rounding rule of every grid in
// this package — weight grids, activation levels and the int8 code path
// all round identically, so the integer kernels in internal/tensor
// reproduce the fake-quantized float values bit for bit.
//
// It is math.Round without its branches. For a float32 v, float64(v) ± ½
// is exact when ½ ≤ |v| < 2^52, stays below 1 in magnitude when |v| < ½,
// and rounds back to v (an even integer) from 2^52 up, so truncating it
// rounds half away from zero; ±0, ±Inf and NaN come out as math.Round
// returns them.
func RoundHalfAway(v float32) float32 {
	f := float64(v)
	return float32(math.Trunc(f + math.Copysign(0.5, f)))
}

// TensorScale returns the adaptive grid step of one QuantizeTensor row,
// derived from the weight statistics the way
// quantization-aware training frameworks do: binary weights use the mean
// magnitude (XNOR-style), low-bit grids use a mean-based step so the grid
// is actually occupied, and wider grids use max|w|/levels. A zero tensor
// falls back to the fixed Scale.
func (q *WeightQuantizer) TensorScale(ws []float32) float32 {
	var sumAbs float64
	var maxAbs float64
	for _, w := range ws {
		a := math.Abs(float64(w))
		sumAbs += a
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || len(ws) == 0 {
		return q.Scale
	}
	mean := sumAbs / float64(len(ws))
	switch {
	case q.Bits == 1:
		return float32(mean)
	case q.Bits <= 3:
		// Low-bit: a step of ~1.5x mean keeps a healthy fraction of
		// weights off zero without saturating everything.
		return float32(1.5 * mean)
	default:
		return float32(maxAbs) / float32(q.Levels())
	}
}

// quantizeWith rounds w onto the grid with the given step. It is exactly
// codeWith(w, scale) * scale; the two must stay in lockstep so the int8
// kernels agree with the fake-quantized floats.
func (q *WeightQuantizer) quantizeWith(w, scale float32) float32 {
	return float32(q.codeWith(w, scale)) * scale
}

// codeWith returns the signed integer grid index of w on a grid with the
// given step: clamp(round(w/scale), ±levels), or ±1 for binary weights.
func (q *WeightQuantizer) codeWith(w, scale float32) int32 {
	if q.Bits == 1 {
		if w < 0 {
			return -1
		}
		return 1
	}
	levels := float32(q.Levels())
	r := RoundHalfAway(w / scale)
	if r > levels {
		r = levels
	}
	if r < -levels {
		r = -levels
	}
	return int32(r)
}

// QuantizeTensor writes the adaptively-scaled quantization of src into dst
// (which may alias src) and returns the scales used. src is read as rows
// of rowLen values, each row with its own adaptive scale: FINN's
// per-channel weight scaling, which tolerates filters of very different
// magnitudes, when a row is one output channel's weights, and tensor-wide
// quantization with a single scale when rowLen == len(src). This is the
// forward path quantization used by internal/nn layers.
func (q *WeightQuantizer) QuantizeTensor(dst, src []float32, rowLen int) ([]float32, error) {
	scales, err := q.rowScales("QuantizeTensor", len(dst), src, rowLen)
	if err != nil {
		return nil, err
	}
	for r, scale := range scales {
		for i := r * rowLen; i < (r+1)*rowLen; i++ {
			dst[i] = q.quantizeWith(src[i], scale)
		}
	}
	return scales, nil
}

// rowScales checks a QuantizeTensor call's lengths and returns the
// adaptive scale of each row of rowLen values of src.
func (q *WeightQuantizer) rowScales(fn string, dstLen int, src []float32, rowLen int) ([]float32, error) {
	if dstLen != len(src) {
		return nil, fmt.Errorf("quant: %s length mismatch %d vs %d", fn, dstLen, len(src))
	}
	if rowLen <= 0 || len(src)%rowLen != 0 {
		return nil, fmt.Errorf("quant: row length %d does not divide %d values", rowLen, len(src))
	}
	scales := make([]float32, len(src)/rowLen)
	for r := range scales {
		scales[r] = q.TensorScale(src[r*rowLen : (r+1)*rowLen])
	}
	return scales, nil
}

// Int8Capable reports whether this quantizer's grid fits signed int8
// codes, i.e. whether the integer fast path (internal/tensor's bit-plane
// convolution) can carry its weights.
// Every grid up to 8 bits has at most ±127 levels.
func (q *WeightQuantizer) Int8Capable() bool { return q.Bits <= 8 }

// QuantizeTensorInt8 writes the int8 grid codes of src into dst, row by
// row like QuantizeTensor, and returns the same scales, such that
// float32(dst[i])*scale of its row is bit-identical to what QuantizeTensor
// writes. This is the weight view internal/tensor packs into the bit
// planes of its integer convolution. It errors for grids wider than 8 bits (codes
// would not fit int8).
func (q *WeightQuantizer) QuantizeTensorInt8(dst []int8, src []float32, rowLen int) ([]float32, error) {
	if !q.Int8Capable() {
		return nil, fmt.Errorf("quant: %d-bit grid does not fit int8 codes", q.Bits)
	}
	scales, err := q.rowScales("QuantizeTensorInt8", len(dst), src, rowLen)
	if err != nil {
		return nil, err
	}
	for r, scale := range scales {
		for i := r * rowLen; i < (r+1)*rowLen; i++ {
			dst[i] = int8(q.codeWith(src[i], scale))
		}
	}
	return scales, nil
}

// QuantizeSymmetricInt8 quantizes src onto a symmetric int8 grid whose
// scale is chosen so the largest magnitude maps to ±127 (dynamic
// activation quantization), writes the codes into dst and returns the
// scale. An all-zero input returns scale 0 with all-zero codes, so
// code*scale is still exact. len(dst) must equal len(src). A NaN or
// infinite input is an error: it has no code, and hiding it would turn a
// NaN activation into a finite prediction.
func QuantizeSymmetricInt8(dst []int8, src []float32) (float32, error) {
	if len(dst) != len(src) {
		return 0, fmt.Errorf("quant: QuantizeSymmetricInt8 length mismatch %d vs %d", len(dst), len(src))
	}
	var maxAbs float32
	for i, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if !(a <= maxAbs) { // a new maximum, or NaN
			if a != a {
				return 0, fmt.Errorf("quant: QuantizeSymmetricInt8 input %d is NaN", i)
			}
			maxAbs = a
		}
	}
	if math.IsInf(float64(maxAbs), 1) {
		return 0, fmt.Errorf("quant: QuantizeSymmetricInt8 input is infinite")
	}
	return SymmetricInt8Codes(dst, src, maxAbs), nil
}

// SymmetricInt8Codes writes the codes of src on the symmetric int8 grid
// whose scale maps maxAbs to 127 and returns that scale: the second half
// of QuantizeSymmetricInt8, for a caller that already knows the largest
// magnitude (internal/nn builds a layer's code table from the values of
// its input's ladder levels). maxAbs must be finite and at least every
// |src[i]|; maxAbs = 0 gives scale 0 and all-zero codes. len(dst) must be
// at least len(src).
func SymmetricInt8Codes(dst []int8, src []float32, maxAbs float32) float32 {
	dst = dst[:len(src)]
	if maxAbs == 0 {
		clear(dst)
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range src {
		r := RoundHalfAway(v * inv)
		if r > 127 {
			r = 127
		}
		if r < -127 {
			r = -127
		}
		dst[i] = int8(r)
	}
	return scale
}

// ActQuantizer is a uniform unsigned activation quantizer with the given
// bit width over [0, Max]; A2 in CNVW2A2 means Bits == 2 (levels 0..3).
//
// Bits and Max are read-only after NewActQuantizer: it builds the exact
// threshold ladder that QuantizeInto reads from them, and every cloned
// layer shares that ladder without a lock.
type ActQuantizer struct {
	Bits int
	Max  float32 // upper clip value; positive and finite

	// The exact ladder. edges holds ascending ordered keys (orderedKey),
	// one per level above 0 plus a last one at Max, padded to at least
	// four with keys no input reaches; an input with c edges at or below
	// its key quantizes to values[c].
	edges  []int64
	values []float32
}

// NewActQuantizer returns an activation quantizer with range [0, max]. The
// step max/(2^bits−1) must be a normal float32, so that no input below max
// rounds above the top level.
func NewActQuantizer(bits int, max float32) (*ActQuantizer, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("quant: activation bit width %d out of range [1,16]", bits)
	}
	if !(max > 0) || math.IsInf(float64(max), 1) {
		return nil, fmt.Errorf("quant: activation max %v must be positive and finite", max)
	}
	q := &ActQuantizer{Bits: bits, Max: max}
	if step := q.Step(); step < 0x1p-126 {
		return nil, fmt.Errorf("quant: activation max %v gives a %d-bit step %v below the smallest normal float32", max, bits, step)
	}
	q.buildLadder()
	return q, nil
}

// buildLadder computes the exact ladder of Quantize. For each level k ≥ 1
// it bisects the positive float32 keys for the first input whose rounding
// index Code reaches k; the last edge is Max itself. Each bin's value is
// Quantize of its first input, so the ladder is exact even where
// Step()·(Levels−1) ≠ Max in float32.
func (q *ActQuantizer) buildLadder() {
	n := q.Levels()
	maxKey := orderedKey(q.Max)
	q.edges = make([]int64, max(n, 4))
	q.values = make([]float32, n+1)
	lo := int64(1) // the smallest positive subnormal
	for k := 1; k < n; k++ {
		lo = firstKey(lo, maxKey, func(x float32) bool { return q.Code(x) >= k })
		q.edges[k-1] = lo
	}
	q.edges[n-1] = maxKey
	for c, e := range q.edges[:n] {
		q.values[c+1] = q.Quantize(math.Float32frombits(uint32(e)))
	}
	for c := n; c < len(q.edges); c++ {
		q.edges[c] = math.MaxInt32 + 1 // above every key: never counted
	}
}

// orderedKey maps x to an integer that orders as float32 values do (−0
// just below +0): negative floats get their magnitude bits flipped.
func orderedKey(x float32) int64 {
	b := int32(math.Float32bits(x))
	return int64(b ^ int32(uint32(b>>31)>>1))
}

// keyFloat inverts orderedKey.
func keyFloat(k int64) float32 {
	b := int32(k)
	return math.Float32frombits(uint32(b ^ int32(uint32(b>>31)>>1)))
}

// firstKey bisects the ordered keys in [lo, hi] for the first whose
// float32 reached reports true. reached must be monotone over the range,
// false then true, and true at hi. It is the one search behind every
// ladder of this package.
func firstKey(lo, hi int64, reached func(float32) bool) int64 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if reached(keyFloat(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// AffineLadder folds a per-channel affine γ·a+β, computed in float32 as
// nn's ScaleShift computes it, into this quantizer's exact ladder, as
// FINN's multi-threshold unit absorbs batch-norm. It returns one
// accumulator threshold per edge such that, for every finite float32 a,
// QuantizeInto(γ·a+β) writes LevelValue(level) bit for bit, where level
// counts the thresholds at or below a when up, at or above it otherwise.
//
// The edges are not mapped through (e−β)/γ, which would lose exactness;
// the accumulator itself is searched. For γ > 0, threshold k is the
// first float32 a, in key order, whose γ·a+β reaches edge k; float32
// multiply and add round monotonically, so the count is exact. For γ < 0
// it is the last such a: γ·a = |γ|·(−a) bit for bit, so it is the
// negated threshold of |γ|. At γ = 0 the thresholds are −Inf up to β's
// level and +Inf above. A NaN or infinite γ or β is an error.
func (q *ActQuantizer) AffineLadder(gamma, beta float32) (t []float32, up bool, err error) {
	if !isFinite(gamma) || !isFinite(beta) {
		return nil, false, fmt.Errorf("quant: affine γ=%v β=%v must be finite", gamma, beta)
	}
	n := q.Levels()
	t = make([]float32, n)
	inf := float32(math.Inf(1))
	if gamma == 0 {
		for k, e := range q.edges[:n] {
			t[k] = inf
			if e <= orderedKey(beta) {
				t[k] = -inf
			}
		}
		return t, true, nil
	}
	g := gamma
	if g < 0 {
		g = -g
	}
	lo := orderedKey(-inf)
	for k, e := range q.edges[:n] {
		lo = firstKey(lo, orderedKey(inf), func(a float32) bool { return orderedKey(g*a+beta) >= e })
		t[k] = keyFloat(lo)
		if gamma < 0 {
			t[k] = -t[k]
		}
	}
	return t, gamma > 0, nil
}

// LevelValue returns what QuantizeInto writes for an input at ladder level
// c, the count of edges at or below it (0 ≤ c ≤ Levels()).
func (q *ActQuantizer) LevelValue(c int) float32 { return q.values[c] }

func isFinite(x float32) bool { return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) }

// QuantizeInto writes Quantize(x) for each x of src into the same index
// of dst, which must be at least as long and may alias src. It reads the
// ladder built by NewActQuantizer: a branch-free bisection narrows the
// count of edges at or below x's ordered key to a window of four, which
// it counts with four independent compares; there is no divide and no
// rounding. A NaN input comes out quieted, as Quantize's arithmetic
// returns it.
func (q *ActQuantizer) QuantizeInto(dst, src []float32) {
	edges, values := q.edges, q.values
	dst = dst[:len(src)]
	for i, x := range src {
		key := orderedKey(x)
		c := 0
		for s := len(edges) / 2; s >= 4; s >>= 1 {
			c += s & int((edges[c+s-1]-key-1)>>63) // s if edge ≤ key
		}
		w := edges[c : c+4 : c+4]
		c -= int((w[0]-key-1)>>63) + int((w[1]-key-1)>>63) + int((w[2]-key-1)>>63) + int((w[3]-key-1)>>63)
		b := math.Float32bits(x)
		nan := uint32(int32(0x7f800000-b&0x7fffffff) >> 31)
		dst[i] = math.Float32frombits(math.Float32bits(values[c])&^nan | (b|0x00400000)&nan)
	}
}

// Levels returns the number of representable activation values (2^bits).
func (q *ActQuantizer) Levels() int { return 1 << q.Bits }

// Step returns the quantization step between adjacent levels.
func (q *ActQuantizer) Step() float32 { return q.Max / float32(q.Levels()-1) }

// Quantize clips x to [0, Max] and rounds to the nearest level.
func (q *ActQuantizer) Quantize(x float32) float32 {
	if x <= 0 {
		return 0
	}
	if x >= q.Max {
		return q.Max
	}
	step := q.Step()
	return step * RoundHalfAway(x/step)
}

// Code returns the integer level index (0..Levels-1) for x. This is the
// value that travels on FINN streams.
func (q *ActQuantizer) Code(x float32) int {
	if x <= 0 {
		return 0
	}
	if x >= q.Max {
		return q.Levels() - 1
	}
	return int(RoundHalfAway(x / q.Step()))
}

// STEGrad passes the gradient through inside (0, Max) and clips outside,
// the standard clipped-ReLU straight-through estimator.
func (q *ActQuantizer) STEGrad(x, grad float32) float32 {
	if x < 0 || x > q.Max {
		return 0
	}
	return grad
}
