package tensor

import (
	"fmt"
	"math/bits"
)

// Bit-plane convolution: the integer convolution for ternary weights and
// two-plane activation codes, computed with AND and popcount on packed
// channel words instead of 8-bit multiply-adds. This is how FINN's MVTU
// multiplies 1- and 2-bit operands.
//
// Weights w ∈ {−1, 0, 1} become two planes, a nonzero mask m (w ≠ 0) and
// a sign n (w = −1). A sample whose int8 codes all lie in {0, c1, c2,
// c1+c2} with 0 < c1 < c2 becomes two activation planes, a₀ (the code
// holds c1) and a₁ (the code holds c2), so x = c1·a₀ + c2·a₁ elementwise.
// For any activation word v, pop(m&(v^n)) counts the +1 weights where v is
// set and the −1 weights where it is not, so, with w⁺ and w⁻ marking the
// +1 and −1 weights,
//
//	pop(m&(v^n)) − pop(n) = pop(w⁺&v) − pop(w⁻&v),
//
// and with N = Σ pop(n) over a filter's words, a constant of the filter,
//
//	Σ w·x = c1·(Σ pop(m&(a₀^n)) − N) + c2·(Σ pop(m&(a₁^n)) − N):
//
// one popcount per plane and filter word. That is the same integer the
// paired-lane kernel accumulates, and the rescale is the same
// float32(int32(acc))·scale expression, so ConvBitplaneBatchInto and
// ConvInt8BatchInto agree bit for bit wherever both apply. A sample
// reaches the kernel as symbols, its int8 codes themselves or indices into
// a table of codes (internal/nn's ladder levels), and a PlaneMap, built by
// the one decomposition rule over the codes the sample holds, says which
// planes each symbol sets.
//
// Activation planes are per-pixel channel words: pixel (y, x) of a sample
// holds ⌈InC/64⌉ words per plane, channel c in bit c mod 64 of word c/64,
// and the input is stored with its zero padding, so a receptive-field row
// of KW pixels is one run of KW·⌈InC/64⌉ consecutive words for any stride.
// A filter is KH such runs, its words in (kh, kw, word) order.

// BitplaneWeights are the mask and sign planes of a convolution whose
// weight codes all lie in {−1, 0, 1}. Filters are stored in blocks of
// four, the last block padded with zero filters: for each filter word
// (kh, kw, word) of a block come the masks m of its four filters (bit set
// where the weight is ±1), then their signs n (bit set where it is −1), so
// the kernel streams one block as a single run of words. negs holds each
// filter's N, its count of −1 weights.
type BitplaneWeights struct {
	g      ConvGeom
	outC   int
	words  int // channel words per pixel, ⌈InC/64⌉
	planes []uint64
	negs   []int64
}

// PackBitplaneWeights packs the (OutC × InC·KH·KW) OIHW codes of w for
// geometry g into mask and sign planes and counts each filter's −1
// weights. It returns nil, without error, when a code lies outside
// {−1, 0, 1}, or when the inner dimension InC·KH·KW is past the bound
// every batched convolution kernel refuses (see validateConvBatch): such
// a layer has no planes.
func PackBitplaneWeights(w *Int8Matrix, g ConvGeom) (*BitplaneWeights, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	kk := g.KH * g.KW
	k := g.InC * kk
	if w.Cols != k || len(w.Data) != w.Rows*k {
		return nil, fmt.Errorf("tensor: PackBitplaneWeights weights %dx%d, want %dx%d", w.Rows, w.Cols, w.Rows, k)
	}
	if k >= maxLaneK {
		return nil, nil
	}
	for _, v := range w.Data {
		if v < -1 || v > 1 {
			return nil, nil
		}
	}
	nw := (g.InC + 63) / 64
	filter := kk * nw
	bw := &BitplaneWeights{g: g, outC: w.Rows, words: nw, negs: make([]int64, w.Rows)}
	bw.planes = make([]uint64, (w.Rows+3)/4*filter*8)
	for o := 0; o < w.Rows; o++ {
		blk := bw.planes[o/4*filter*8:]
		for c := 0; c < g.InC; c++ {
			bit := uint64(1) << (c & 63)
			codes := w.Data[o*k+c*kk : o*k+(c+1)*kk] // (kh, kw) of channel c
			for r, v := range codes {
				i := (r*nw+c>>6)*8 + o%4
				if v != 0 {
					blk[i] |= bit
				}
				if v < 0 {
					blk[i+4] |= bit
					bw.negs[o]++
				}
			}
		}
	}
	return bw, nil
}

// planeCodes returns the plane weights c1 < c2 of a sample's codes: every
// code of x is 0, c1, c2 or c1+c2. When x has fewer than three distinct
// nonzero codes the unused weight is 0. ok is false when x has a negative
// code, more than three nonzero codes, or three whose largest is not the
// sum of the other two. The scan stops at the first code that rules x out,
// so an image input costs a few pixels. It is the one decomposition rule
// of the bit-plane kernel.
func planeCodes(x []int8) (c1, c2 int32, ok bool) {
	var seen [128]bool
	var vals [3]int8
	n := 0
	for _, v := range x {
		if v <= 0 {
			if v < 0 {
				return 0, 0, false
			}
			continue
		}
		if seen[v] {
			continue
		}
		if n == len(vals) {
			return 0, 0, false
		}
		seen[v] = true
		vals[n] = v
		n++
	}
	a, b, c := int32(vals[0]), int32(vals[1]), int32(vals[2])
	switch n {
	case 0, 1:
		return a, 0, true
	case 2:
		return min(a, b), max(a, b), true
	}
	lo, hi := min(a, b, c), max(a, b, c)
	mid := a + b + c - lo - hi
	return lo, mid, hi == lo+mid
}

// PlaneMap is how one sample's input symbols split into the two
// activation planes of the bit-plane kernel: symbol s sets a₀ where bit 0
// of Bits[s] is set and a₁ where bit 1 is, so the code it stands for is
// C1·(Bits[s]&1) + C2·(Bits[s]>>1). A symbol is an int8 code itself
// (Int8PlaneMap) or an index into a table of codes (NewPlaneMap).
type PlaneMap struct {
	C1, C2 int32
	Bits   [256]uint8
}

// planeMap returns the map of the int8 codes {0, c1, c2, c1+c2} onto
// themselves as symbols.
func planeMap(c1, c2 int32) PlaneMap {
	m := PlaneMap{C1: c1, C2: c2}
	if c1 > 0 {
		m.Bits[c1] = 1
	}
	if c2 > 0 {
		m.Bits[c2] = 2
		if c1+c2 < 128 {
			m.Bits[c1+c2] = 3
		}
	}
	return m
}

// Int8PlaneMap returns the plane map of a sample of int8 codes, each code
// its own symbol. ok is false when the codes do not decompose into two
// planes (see planeCodes).
func Int8PlaneMap(x []int8) (m PlaneMap, ok bool) {
	c1, c2, ok := planeCodes(x)
	if !ok {
		return PlaneMap{}, false
	}
	return planeMap(c1, c2), true
}

// NewPlaneMap returns the plane map of symbols that stand for int8 codes:
// symbol s is codes[s], and a symbol the sample does not hold must have
// code 0. ok is false when the codes do not decompose into two planes
// (see planeCodes).
func NewPlaneMap(codes []int8) (m PlaneMap, ok bool) {
	c1, c2, ok := planeCodes(codes)
	if !ok {
		return PlaneMap{}, false
	}
	byCode := planeMap(c1, c2)
	m = PlaneMap{C1: c1, C2: c2}
	for s, v := range codes {
		m.Bits[s] = byCode.Bits[uint8(v)]
	}
	return m, true
}

// packActPlanes writes the two activation planes of the symbols x, split
// by bits, into a0 and a1, each (InH+2·PadH)·(InW+2·PadW)·words long,
// padding included.
func packActPlanes[S int8 | uint8](a0, a1 []uint64, x []S, g ConvGeom, words int, bits *[256]uint8) {
	clear(a0)
	clear(a1)
	pw := g.InW + 2*g.PadW
	hw := g.InH * g.InW
	for c := 0; c < g.InC; c++ {
		sh := uint(c & 63)
		xc := x[c*hw : (c+1)*hw]
		for y := 0; y < g.InH; y++ {
			i := ((y+g.PadH)*pw+g.PadW)*words + c>>6
			for _, v := range xc[y*g.InW : (y+1)*g.InW] {
				p := bits[uint8(v)]
				a0[i] |= uint64(p&1) << sh
				a1[i] |= uint64(p>>1) << sh
				i += words
			}
		}
	}
}

// ConvBitplaneBatchInto is ConvInt8BatchInto for weights held as mask and
// sign planes and inputs held as symbols: sample b's symbol s stands for
// the code maps[b] gives it, and otherwise the dsts, g and outScales
// contract and the results are ConvInt8BatchInto's, bit for bit. The caller finds
// the maps (Int8PlaneMap, NewPlaneMap); a sample whose codes do not
// decompose into two planes goes to ConvInt8BatchInto instead.
//
// Work is split across the package worker pool by (sample, output row).
// A worker packs the planes of each sample it reaches into its own
// borrowed scratch, so a sample split between two workers is packed twice
// and no plane buffer spans the batch. Each output element is written by
// exactly one worker from an exact integer sum, so the results are the
// same for any worker count.
func ConvBitplaneBatchInto[S int8 | uint8](dsts []*Tensor, w *BitplaneWeights, xs [][]S, maps []PlaneMap, g ConvGeom, outScales [][]float32) error {
	if err := validateConvBatch("ConvBitplaneBatchInto", dsts, xs, g, w.outC, outScales); err != nil {
		return err
	}
	if g != w.g {
		return fmt.Errorf("tensor: ConvBitplaneBatchInto geometry %+v, weights packed for %+v", g, w.g)
	}
	bsz := len(xs)
	if len(maps) != bsz {
		return fmt.Errorf("tensor: ConvBitplaneBatchInto wants %d plane maps, got %d", bsz, len(maps))
	}
	nw := w.words
	plane := (g.InH + 2*g.PadH) * (g.InW + 2*g.PadW) * nw
	oh, ow := g.OutH(), g.OutW()
	filter := g.KH * g.KW * nw
	parallelFor(bsz*oh, 4*w.outC*ow*filter, func(lo, hi int) {
		// One sample's planes, then one output row's patches.
		scratch := uint64Arena.borrow(2*plane + 2*ow*filter)
		defer uint64Arena.release(scratch)
		a0, a1, patch := scratch[:plane], scratch[plane:2*plane], scratch[2*plane:]
		for u := lo; u < hi; u++ {
			b, oy := u/oh, u%oh
			if u == lo || oy == 0 {
				packActPlanes(a0, a1, xs[b], g, nw, &maps[b].Bits)
			}
			gatherPatches(patch, a0, a1, g, nw, oy)
			bitplaneRow(dsts[b].data, w, patch, oy, [2]int32{maps[b].C1, maps[b].C2}, outScales[b])
		}
	})
	return nil
}

// gatherPatches copies the receptive fields of output row oy out of the
// activation planes a0 and a1: position ox gets the words of its KH runs in
// filter order, each word of a₀ followed by the same word of a₁. A row of
// patches is a few KiB and is reused by every filter block.
func gatherPatches(patch, a0, a1 []uint64, g ConvGeom, words, oy int) {
	run := g.KW * words
	rowStride := (g.InW + 2*g.PadW) * words
	i := 0
	for ox := range g.OutW() {
		base := oy*g.StrideH*rowStride + ox*g.StrideW*words
		for kh := 0; kh < g.KH; kh++ {
			r := base + kh*rowStride
			x1 := a1[r : r+run]
			for j, v := range a0[r : r+run] {
				patch[i] = v
				patch[i+1] = x1[j]
				i += 2
			}
		}
	}
}

// rowChunk is how many output positions bitplaneRow hands bitDot4 at a
// time, so their plane sums fit a stack buffer.
const rowChunk = 32

// bitplaneRow writes output row oy of one sample into dst (OutC × OH·OW)
// from the row's patches: per block of four filters, bitDot4 forms the
// plane counts p₀, p₁ at the row's positions, and each output becomes
// float32(int32(c1·(p₀−N) + c2·(p₁−N)))·scale.
func bitplaneRow(dst []float32, w *BitplaneWeights, patch []uint64, oy int, c [2]int32, s []float32) {
	g := w.g
	ow := g.OutW()
	cols := g.OutH() * ow
	filter := g.KH * g.KW * w.words
	c1, c2 := int64(c[0]), int64(c[1])
	var sums [4 * rowChunk]uint64
	for o := 0; o < w.outC; o += 4 {
		wb := w.planes[o/4*filter*8 : (o/4+1)*filter*8]
		for x0 := 0; x0 < ow; x0 += rowChunk {
			npos := min(rowChunk, ow-x0)
			bitDot4(sums[:4*npos], wb, patch[2*x0*filter:2*(x0+npos)*filter])
			for i := range min(4, w.outC-o) {
				sc := s[min(o+i, len(s)-1)] // one scale, or one per channel
				n := w.negs[o+i]
				row := dst[(o+i)*cols+oy*ow+x0 : (o+i)*cols+oy*ow+x0+npos]
				for j := range row {
					p := sums[j*4+i]
					acc := c1*(int64(uint32(p))-n) + c2*(int64(p>>32)-n)
					row[j] = float32(int32(acc)) * sc
				}
			}
		}
	}
}

// bitDot4Go forms, for each patch of patch and each filter i of the block
// wb, the plane counts p₀ = Σ pop(m&(a₀^n)) and p₁ = Σ pop(m&(a₁^n)) into
// sums[pos·4+i], p₀ in the low 32 bits and p₁ in the high. Each count is
// at most the inner dimension, below maxLaneK = 2¹⁷, so the low half never
// carries into the high one. It is bitDot4 off amd64 and on CPUs without
// AVX2, and the reference the assembly body is tested against.
func bitDot4Go(sums []uint64, wb, patch []uint64) {
	filter := len(wb) / 8
	for pos := range len(sums) / 4 {
		x := patch[pos*2*filter : (pos+1)*2*filter]
		var s0, s1, s2, s3 uint64
		for f := range filter {
			v0, v1 := x[2*f], x[2*f+1]
			q := wb[8*f : 8*f+8 : 8*f+8]
			s0 += uint64(bits.OnesCount64(q[0]&(v0^q[4]))) + uint64(bits.OnesCount64(q[0]&(v1^q[4])))<<32
			s1 += uint64(bits.OnesCount64(q[1]&(v0^q[5]))) + uint64(bits.OnesCount64(q[1]&(v1^q[5])))<<32
			s2 += uint64(bits.OnesCount64(q[2]&(v0^q[6]))) + uint64(bits.OnesCount64(q[2]&(v1^q[6])))<<32
			s3 += uint64(bits.OnesCount64(q[3]&(v0^q[7]))) + uint64(bits.OnesCount64(q[3]&(v1^q[7])))<<32
		}
		out := sums[pos*4 : pos*4+4 : pos*4+4]
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
	}
}
