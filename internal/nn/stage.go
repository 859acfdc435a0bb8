package nn

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// The staged inference path: Network.ForwardBatch carries level codes
// between quantized layers, as FINN's MVTUs stream threshold counts, so no
// float activation exists between them. A quantized Conv2D or Dense
// followed by ScaleShift → QuantAct is one stage: the integer body writes
// its rescaled output into borrowed scratch, and one epilogue adds the
// bias and counts each channel's ladder thresholds (affineLadder), giving
// the level QuantAct would select. MaxPool2D and Flatten pass levels on;
// the next quantized layer reads them through a table of one int8 code per
// level (levelBatch.codeTable). Every output is what the per-layer path
// computes, bit for bit:
//
//   - quant.ActQuantizer.AffineLadder's thresholds are exact: their count
//     is QuantizeInto(γ·a+β)'s level for every finite a, and LevelValue of
//     that level is what QuantAct writes;
//   - a level's code comes from quant.SymmetricInt8Codes, the expression
//     QuantizeSymmetricInt8 codes floats with, and maxAbs is the value of
//     the sample's top level, the largest float the sample holds;
//   - QuantAct's ladder is monotone, so a window's top level is the level
//     of its largest value: pooling levels commutes with quantizing;
//   - the bit planes and their weights come from the codes present, by
//     the kernel's own decomposition rule.

// maxLevels bounds the ladder levels a staged batch can hold, so a
// sample's level set fits one uint64. 2-bit activations have 5 (0..4).
const maxLevels = 64

// levelBatch is a batch of activations held as ladder levels: element i
// of sample j stands for q.LevelValue(levels[j][i]), and bit l of
// present[j] is set when sample j holds level l.
type levelBatch struct {
	q       *quant.ActQuantizer
	shape   []int // one sample's shape, as the per-layer path's tensors have it
	levels  [][]uint8
	present []uint64
	buf     []uint8 // borrowed backing of levels
}

// newLevelBatch borrows an uninitialised batch of bsz samples of shape.
func newLevelBatch(q *quant.ActQuantizer, bsz int, shape ...int) *levelBatch {
	vol := volume(shape)
	lb := &levelBatch{q: q, shape: shape, levels: make([][]uint8, bsz), present: make([]uint64, bsz),
		buf: tensor.BorrowUint8(bsz * vol)}
	for j := range lb.levels {
		lb.levels[j] = lb.buf[j*vol : (j+1)*vol]
	}
	return lb
}

// release returns the levels' storage; the batch must not be used again.
func (lb *levelBatch) release() {
	tensor.ReleaseUint8(lb.buf)
	lb.buf, lb.levels = nil, nil
}

// floats returns the tensors the per-layer path holds at this point: each
// level replaced by its value.
func (lb *levelBatch) floats() []*tensor.Tensor {
	var vals [256]float32
	for l := 0; l <= lb.q.Levels(); l++ {
		vals[l] = lb.q.LevelValue(l)
	}
	outs := make([]*tensor.Tensor, len(lb.levels))
	for j, x := range lb.levels {
		t := tensor.New(lb.shape...)
		td := t.Data()
		for i, l := range x {
			td[i] = vals[l]
		}
		outs[j] = t
	}
	return outs
}

// levelSet returns the set of levels x holds, bit l for level l.
func levelSet(x []uint8) uint64 {
	var seen [256]bool
	for _, l := range x {
		seen[l] = true
	}
	var set uint64
	for l, ok := range seen[:maxLevels] {
		if ok {
			set |= 1 << l
		}
	}
	return set
}

// codeTable returns the int8 code of every level sample j holds, with the
// scale: quant.SymmetricInt8Codes of the levels' values, maxAbs the
// largest of them, exactly as QuantizeSymmetricInt8 codes the floats the
// levels stand for. Levels the sample does not hold get code 0.
func (lb *levelBatch) codeTable(j int) (codes [maxLevels]int8, scale float32) {
	p := lb.present[j]
	n := bits.Len64(p)
	var vals [maxLevels]float32
	var maxAbs float32
	for l := range n {
		vals[l] = lb.q.LevelValue(l)
		if p>>l&1 != 0 {
			maxAbs = max(maxAbs, vals[l])
		}
	}
	scale = quant.SymmetricInt8Codes(codes[:n], vals[:n], maxAbs)
	for l := range n {
		if p>>l&1 == 0 {
			codes[l] = 0
		}
	}
	return codes, scale
}

// affineLadder is a ScaleShift folded into the ladder of the QuantAct that
// follows it, one quant.ActQuantizer.AffineLadder per channel. Channel c's
// level is the count of th[c·n:(c+1)·n] at or below sign[c]·a: negating
// both sides turns the count of thresholds at or above a (γ < 0) into the
// same form, exactly.
type affineLadder struct {
	q    *quant.ActQuantizer
	n    int // thresholds per channel, q.Levels()
	th   []float32
	sign []float32
}

// newAffineLadder folds the per-channel affine γ·a+β into q's ladder. A
// NaN or infinite γ or β is an error.
func newAffineLadder(q *quant.ActQuantizer, gamma, beta []float32) (*affineLadder, error) {
	n := q.Levels()
	l := &affineLadder{q: q, n: n, th: make([]float32, 0, len(gamma)*n), sign: make([]float32, len(gamma))}
	for c, g := range gamma {
		t, up, err := q.AffineLadder(g, beta[c])
		if err != nil {
			return nil, err
		}
		l.sign[c] = 1
		if !up {
			l.sign[c] = -1
			for k := range t {
				t[k] = -t[k]
			}
		}
		l.th = append(l.th, t...)
	}
	return l, nil
}

// levels is the epilogue of a stage: it adds the bias to each sample's
// rescaled (channels × cols) output and writes the level of every element.
// It returns nil, leaving the float path to the caller, when an element is
// not finite: its level would be exact, but the per-layer path carries the
// NaN or infinity on, or fails on it.
func (l *affineLadder) levels(dsts []*tensor.Tensor, bias *Param, shape []int) *levelBatch {
	lb := newLevelBatch(l.q, len(dsts), shape...)
	var b []float32
	if bias != nil {
		b = bias.Value.Data()
	}
	finite := make([]bool, len(dsts))
	tensor.ParallelFor(len(dsts), 4*volume(shape), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			lb.present[j], finite[j] = l.levelsInto(lb.levels[j], dsts[j].Data(), b)
		}
	})
	for _, ok := range finite {
		if !ok {
			lb.release()
			return nil
		}
	}
	return lb
}

// levelsInto writes the levels of one sample's output src plus bias (nil
// for none) into dst and returns the set of levels written; ok is false
// when an element is not finite. Adding +0 where the layer has no bias may
// turn a −0 into +0, which no threshold compare tells apart. A channel of
// a 2-bit ladder is one tensor.Ladder4 row, 8 elements a step where the
// CPU has AVX2; other ladders count here.
func (l *affineLadder) levelsInto(dst []uint8, src, bias []float32) (present uint64, ok bool) {
	cols := len(src) / len(l.sign)
	for c, sign := range l.sign {
		var b float32
		if bias != nil {
			b = bias[c]
		}
		th := l.th[c*l.n : (c+1)*l.n]
		out, row := dst[c*cols:(c+1)*cols], src[c*cols:(c+1)*cols]
		if len(th) == 4 {
			p, ok := tensor.Ladder4(out, row, b, sign, [4]float32(th))
			if !ok {
				return 0, false
			}
			present |= p
			continue
		}
		for i, v := range row {
			a := v + b
			if a-a != 0 { // ±Inf or NaN
				return 0, false
			}
			a *= sign
			var lv uint8
			for _, t := range th {
				lv += b2u(a >= t)
			}
			out[i] = lv
			present |= 1 << (lv & (maxLevels - 1))
		}
	}
	return present, true
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint8 {
	var u uint8
	if b {
		u = 1
	}
	return u
}

// ladderCache holds a ScaleShift's affineLadder, keyed on a bitwise copy
// of the γ and β it was folded from and on the quantizer it was folded
// into, so an in-place edit of either is seen whether or not the Param's
// version was bumped.
type ladderCache struct {
	gamma, beta []float32
	q           *quant.ActQuantizer
	lad         *affineLadder
	err         error
}

// ladder returns the layer folded into q's ladder, building it on first
// use after γ, β or q change.
func (s *ScaleShift) ladder(q *quant.ActQuantizer) (*affineLadder, error) {
	lc := s.ladders
	gd, bd := s.Gamma.Value.Data(), s.Beta.Value.Data()
	if lc == nil || lc.q != q || !sameBits(lc.gamma, gd) || !sameBits(lc.beta, bd) {
		lc = &ladderCache{gamma: slices.Clone(gd), beta: slices.Clone(bd), q: q}
		lc.lad, lc.err = newAffineLadder(q, gd, bd)
		s.ladders = lc
	}
	return lc.lad, lc.err
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// intInput is a quantized layer's input batch on the integer body: per
// sample, its symbols, the scale, and the plane map the bit-plane kernel
// reads the symbols by. A float input is coded by
// quant.QuantizeSymmetricInt8, each int8 code its own symbol; a staged one
// arrives as levels, each level a symbol whose code its codeTable gives.
type intInput struct {
	scales []float32
	codes  [][]int8
	levels [][]uint8
	maps   []tensor.PlaneMap
	buf    []int8 // borrowed backing of codes
}

// newIntInput codes the float samples xs, or the levels lv, as the input
// of a layer with vol inputs per sample. When a float sample has no codes
// (NaN or infinite) it returns the sample's index with the error.
func newIntInput(xs []*tensor.Tensor, lv *levelBatch, vol int) (*intInput, int, error) {
	if lv == nil {
		in := &intInput{scales: make([]float32, len(xs)), codes: make([][]int8, len(xs)),
			maps: make([]tensor.PlaneMap, len(xs)), buf: tensor.BorrowInt8(len(xs) * vol)}
		for j, x := range xs {
			in.codes[j] = in.buf[j*vol : (j+1)*vol]
			sx, err := quant.QuantizeSymmetricInt8(in.codes[j], x.Data())
			if err != nil {
				in.release()
				return nil, j, err
			}
			in.scales[j], in.maps[j] = sx, tensor.Int8PlaneMap(in.codes[j])
		}
		return in, 0, nil
	}
	bsz := len(lv.levels)
	in := &intInput{scales: make([]float32, bsz), levels: lv.levels, maps: make([]tensor.PlaneMap, bsz)}
	for j := range bsz {
		codes, sx := lv.codeTable(j)
		in.scales[j], in.maps[j] = sx, tensor.NewPlaneMap(codes[:])
	}
	return in, 0, nil
}

// release returns the codes' storage.
func (in *intInput) release() {
	if in.buf != nil {
		tensor.ReleaseInt8(in.buf)
		in.buf, in.codes = nil, nil
	}
}

// convolve runs the batch on the bit-plane kernel against the weight
// planes wb of geometry g and returns one (outC × OutH·OutW) output per
// sample, rescaled once by weight scale × sample scale: borrowed scratch
// when scratch is set, else the tensors the float exit returns.
func (in *intInput) convolve(wb *tensor.BitplaneWeights, wScales []float32, g tensor.ConvGeom, outC int, scratch bool) ([]*tensor.Tensor, error) {
	buf := make([]float32, len(in.scales)*len(wScales))
	outScales := make([][]float32, len(in.scales))
	dsts := make([]*tensor.Tensor, len(in.scales))
	for j, sx := range in.scales {
		row := buf[j*len(wScales) : (j+1)*len(wScales)]
		for i, s := range wScales {
			row[i] = s * sx
		}
		outScales[j] = row
		if scratch {
			dsts[j] = tensor.Borrow(outC, g.OutH()*g.OutW())
		} else {
			dsts[j] = tensor.New(outC, g.OutH()*g.OutW())
		}
	}
	var err error
	if in.levels != nil {
		err = tensor.ConvBitplaneBatchInto(dsts, wb, in.levels, in.maps, g, outScales)
	} else {
		err = tensor.ConvBitplaneBatchInto(dsts, wb, in.codes, in.maps, g, outScales)
	}
	return dsts, err
}

// intExit ends an integer body. Given the ladder of the ScaleShift →
// QuantAct that follows, it returns the outputs' levels; otherwise, or
// when an output is not finite, it adds the bias to each sample's rescaled
// output and returns the floats in shape.
func intExit(dsts []*tensor.Tensor, bias *Param, lad *affineLadder, shape ...int) ([]*tensor.Tensor, *levelBatch, error) {
	if lad != nil {
		lv := lad.levels(dsts, bias, shape)
		for j, d := range dsts {
			if lv == nil {
				f := tensor.New(d.Shape()...)
				copy(f.Data(), d.Data())
				dsts[j] = f
			}
			tensor.Release(d)
		}
		if lv != nil {
			return nil, lv, nil
		}
	}
	outs := make([]*tensor.Tensor, len(dsts))
	for j, d := range dsts {
		addBias(d.Data(), bias)
		out, err := d.Reshape(shape...)
		if err != nil {
			return nil, nil, err
		}
		outs[j] = out
	}
	return outs, nil, nil
}

// addBias adds bias[o] to row o of od, a (len(bias) × cols) output, after
// the rescale. A nil bias adds nothing.
func addBias(od []float32, bias *Param) {
	if bias == nil {
		return
	}
	b := bias.Value.Data()
	cols := len(od) / len(b)
	for o, v := range b {
		row := od[o*cols : (o+1)*cols]
		for i := range row {
			row[i] += v
		}
	}
}

// pathCounts record which body served each inference sample of a
// quantized layer: the int8-path acceptance tests fail if one falls back
// to float, or a staged layer off its levels. They are int32 so that no
// layer grows a size class: library generation allocates thousands of
// pruned layers.
type pathCounts struct {
	intForwards   int32
	levelForwards int32 // the subset of intForwards whose input came as levels
	floatFwds     int32
}

// count records an integer-body batch of bsz samples, staged when its
// input came as levels.
func (pc *pathCounts) count(bsz int, staged bool) {
	pc.intForwards += int32(bsz)
	if staged {
		pc.levelForwards += int32(bsz)
	}
}

// stageLayer is a layer with an integer body that Network.ForwardBatch
// can enter with floats or levels and leave with floats or levels.
type stageLayer interface {
	Layer
	// int8Path reports whether inference runs the integer body.
	int8Path() bool
	// takesLevels reports whether levels of one sample's shape fit the
	// layer's input.
	takesLevels(shape []int) bool
	// outChannels is the channel count of the layer's output.
	outChannels() int
	// forwardStage runs the integer body on the float samples xs, checked
	// as Forward checks them, or on the levels lv; given lad it ends in
	// levels unless an output is not finite.
	forwardStage(xs []*tensor.Tensor, lv *levelBatch, lad *affineLadder) ([]*tensor.Tensor, *levelBatch, error)
}

// ladderAfter returns the ladder of layers i+1 and i+2 when they are a
// ScaleShift over channels channels and a QuantAct whose levels fit a
// levelBatch, and the fold succeeds; nil otherwise, and the float path
// runs them.
func (n *Network) ladderAfter(i, channels int) *affineLadder {
	if i+2 >= len(n.Layers) {
		return nil
	}
	ss, ok1 := n.Layers[i+1].Layer.(*ScaleShift)
	qa, ok2 := n.Layers[i+2].Layer.(*QuantAct)
	if !ok1 || !ok2 || qa.Q == nil || qa.Q.Levels() >= maxLevels || ss.Channels != channels ||
		ss.Gamma.Value.Len() != channels || ss.Beta.Value.Len() != channels {
		return nil
	}
	lad, err := ss.ladder(qa.Q)
	if err != nil {
		return nil
	}
	return lad
}

// passLevels serves a layer that keeps a staged batch in levels: a
// MaxPool2D without padding pools them, a Flatten reshapes them. It
// returns nil for any other layer, and for a shape the layer would refuse.
func passLevels(l Layer, lv *levelBatch) *levelBatch {
	switch l := l.(type) {
	case *MaxPool2D:
		return l.poolLevels(lv)
	case *Flatten:
		lv.shape = []int{volume(lv.shape)}
		return lv
	}
	return nil
}
