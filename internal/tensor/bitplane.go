package tensor

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bit-plane convolution: the integer convolution, computed with AND and
// popcount on packed receptive-field words instead of 8-bit multiply-adds.
// This is how FINN's MVTU multiplies 1- and 2-bit operands, and how
// bit-serial matrix multiplication (BISMO) extends it to wide ones: a
// product of wide codes is a weighted sum of one popcount per bit plane.
//
// Weights w ∈ {−1, 0, 1} become two planes, a nonzero mask m (w ≠ 0) and
// a sign n (w = −1). A sample's int8 codes become P activation planes
// a_0 … a_{P−1} with plane weights ω_b, so x = Σ_b ω_b·a_b elementwise.
// For any activation word v, pop(m&(v^n)) counts the +1 weights where v
// is set and the −1 weights where it is not, so, with w⁺ and w⁻ marking
// the +1 and −1 weights,
//
//	pop(m&(v^n)) − pop(n) = pop(w⁺&v) − pop(w⁻&v),
//
// and with N = Σ pop(n) over a filter's words, a constant of the filter,
//
//	Σ w·x = Σ_b ω_b·(p_b − N),  p_b = Σ pop(m&(a_b^n)):
//
// one popcount per plane and filter word, and the int32 sum is rescaled
// once, as float32(int32(acc))·scale.
//
// Wider weight codes split into sign-magnitude ternary planes first:
// w = Σ_a 2^a·t_a with t_a = sign(w)·bit_a(|w|) ∈ {−1, 0, 1}, and
// P_w = bits.Len(max|w|) of them: one for W1 and W2 grids, two for W3,
// three for W4, seven for W8, eight when a code is −128. Each weight
// plane is a ternary convolution of its own, whose sum s_a lies within
// ±128·k, below 2²⁴ for k < maxBitplaneK, so it leaves the kernel as an
// exact float32 at unit scale; the planes add in int32 as Σ 2^a·s_a,
// which is Σ w·x exactly, and the rescale is the same expression.
//
// One rule (Int8PlaneMap) picks a sample's planes from the codes it holds.
// Codes in {0, c1, c2, c1+c2} with 0 < c1 < c2, the levels of a 2-bit
// activation, take P = 2 and ω = (c1, c2), or P = 1 when c2 is unused. Any
// other codes, an image's among them, take their two's complement:
// P = 8 and ω = (1, 2, 4, …, 64, −128), or P = 7 when no code is negative.
// A sample reaches the kernel as symbols, its int8 codes themselves or
// indices into a table of codes (internal/nn's ladder levels), and a
// PlaneMap says which planes each symbol sets.
//
// A receptive field is one bit string in (kh, kw, c) order: bit
// (kh·KW + kw)·InC + c holds channel c of window pixel (kh, kw), and a
// field is ⌈KH·KW·InC/64⌉ words per plane, with no padding between pixels,
// so conv0's 3×3×3 field is one word and a pruned layer's few channels
// fill their words. A sample is packed once per plane as padded row
// bitstreams, pixel x of a padded row holding channel c in bit x·InC + c.
// Row kh of the field at output (oy, ox) is then the run of KW·InC bits
// that starts at bit ox·StrideW·InC of padded row oy·StrideH + kh, copied
// word for word when InC is a multiple of 64 and cut out with shifts
// otherwise. The kernel, bitDot4, weighs each plane's counts by ω_b and
// rescales the sums as it goes, so a block of four filters of a one-plane
// weight grid leaves it as finished outputs.

// maxBitplaneK bounds the inner dimension InC·KH·KW of the bit-plane
// convolution, k < 2¹⁷: a weight plane's sum, within ±128·k, is then below
// 2²⁴ and exact as the float32 bitDot4 writes, and the sum over the
// planes, within ±128·128·k, fits int32.
const maxBitplaneK = 1 << 17

// BitplaneWeights are the mask and sign planes of a convolution's int8
// weight codes, P_w ternary weight planes of them. Filters are stored in
// blocks of four, the last block padded with zero filters: for each field
// word of a block come the masks m of its four filters (bit set where the
// plane's weight is ±1), then their signs n (bit set where it is −1), so
// the kernel streams one block as a single run of words. Weight plane a
// holds its blocks from planes[a·blocks·words·8] and its filters' N, their
// counts of −1 weights, from negs[a·outC].
type BitplaneWeights struct {
	g       ConvGeom
	outC    int
	words   int // field words per plane, ⌈InC·KH·KW/64⌉
	wplanes int // weight planes P_w, 1 to 8
	planes  []uint64
	negs    []int32
}

// PackBitplaneWeights packs the (OutC × InC·KH·KW) OIHW codes of w for
// geometry g into the mask and sign planes of their sign-magnitude
// ternary planes, in field order, and counts each plane's −1 weights per
// filter. An inner dimension InC·KH·KW of maxBitplaneK or more is an
// error: past it the sums are not exact.
func PackBitplaneWeights(w *Int8Matrix, g ConvGeom) (*BitplaneWeights, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	kk := g.KH * g.KW
	k := g.InC * kk
	if w.Cols != k || len(w.Data) != w.Rows*k {
		return nil, fmt.Errorf("tensor: PackBitplaneWeights weights %dx%d, want %dx%d", w.Rows, w.Cols, w.Rows, k)
	}
	if k >= maxBitplaneK {
		return nil, fmt.Errorf("tensor: PackBitplaneWeights inner dimension %d exceeds the bit-plane bound %d", k, maxBitplaneK-1)
	}
	top := 1
	for _, v := range w.Data {
		top = max(top, abs8(v))
	}
	nw := (k + 63) / 64
	blocks := (w.Rows + 3) / 4
	bw := &BitplaneWeights{g: g, outC: w.Rows, words: nw, wplanes: bits.Len(uint(top))}
	bw.planes = make([]uint64, bw.wplanes*blocks*nw*8)
	bw.negs = make([]int32, bw.wplanes*w.Rows)
	for o := 0; o < w.Rows; o++ {
		for c := 0; c < g.InC; c++ {
			codes := w.Data[o*k+c*kk : o*k+(c+1)*kk] // (kh, kw) of channel c
			for r, v := range codes {
				j := r*g.InC + c // the field bit of (kh, kw, c)
				i := (o/4*nw+j>>6)*8 + o%4
				bit := uint64(1) << (j & 63)
				for a, mag := 0, abs8(v); mag != 0; a, mag = a+1, mag>>1 {
					if mag&1 == 0 {
						continue
					}
					blk := bw.planes[a*blocks*nw*8:]
					blk[i] |= bit
					if v < 0 {
						blk[i+4] |= bit
						bw.negs[a*w.Rows+o]++
					}
				}
			}
		}
	}
	return bw, nil
}

// abs8 is |v| as an int, 128 for −128.
func abs8(v int8) int { return max(int(v), -int(v)) }

// PlaneMap is how one sample's input symbols split into the P activation
// planes of the bit-plane kernel: symbol s sets plane b where bit b of
// Bits[s] is set, so the code it stands for is Σ_b W[b]·(Bits[s]>>b&1)
// over b < P. A symbol is an int8 code itself (Int8PlaneMap) or an index
// into a table of codes (NewPlaneMap).
type PlaneMap struct {
	P    int     // planes, 1 to 8
	W    [8]int8 // plane weights ω_b
	Bits [256]uint8
}

// twosComplement are the plane weights of an int8 code's two's
// complement: x = Σ_b 2^b·x_b − 128·x_7.
var twosComplement = [8]int8{1, 2, 4, 8, 16, 32, 64, -128}

// planeCodes returns the plane weights c1 < c2 of a sample's codes: every
// code of x is 0, c1, c2 or c1+c2. When x has fewer than three distinct
// nonzero codes the unused weight is 0. ok is false when x has a negative
// code, more than three nonzero codes, or three whose largest is not the
// sum of the other two. The scan stops at the first code that rules x out.
func planeCodes(x []int8) (c1, c2 int8, ok bool) {
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
	a, b, c := vals[0], vals[1], vals[2]
	switch n {
	case 0, 1:
		return a, 0, true
	case 2:
		return min(a, b), max(a, b), true
	}
	lo, hi := min(a, b, c), max(a, b, c)
	mid := int(a) + int(b) + int(c) - int(lo) - int(hi)
	return lo, int8(mid), int(hi) == int(lo)+mid
}

// Int8PlaneMap returns the plane map of a sample of int8 codes, each code
// its own symbol. It is the one decomposition rule of the bit-plane
// kernel: codes {0, c1, c2, c1+c2} take two planes weighted (c1, c2), one
// when c2 is 0; any others take their two's complement, seven planes when
// no code is negative and eight otherwise.
func Int8PlaneMap(x []int8) PlaneMap {
	c1, c2, ok := planeCodes(x)
	if !ok {
		m := PlaneMap{P: 7, W: twosComplement}
		for _, v := range x {
			if v < 0 {
				m.P = 8
				break
			}
		}
		for s := range m.Bits {
			m.Bits[s] = uint8(s)
		}
		return m
	}
	m := PlaneMap{P: 2, W: [8]int8{c1, c2}}
	if c2 == 0 {
		m.P = 1
	}
	if c1 > 0 {
		m.Bits[c1] = 1
	}
	if c2 > 0 {
		m.Bits[c2] = 2
		if int(c1)+int(c2) < 128 {
			m.Bits[c1+c2] = 3
		}
	}
	return m
}

// NewPlaneMap returns the plane map of symbols that stand for int8 codes:
// symbol s is codes[s], and a symbol the sample does not hold must have
// code 0.
func NewPlaneMap(codes []int8) PlaneMap {
	byCode := Int8PlaneMap(codes)
	m := PlaneMap{P: byCode.P, W: byCode.W}
	for s, v := range codes {
		m.Bits[s] = byCode.Bits[uint8(v)]
	}
	return m
}

// packRows writes the m.P planes of the symbols x, a CHW sample, into
// rows as padded row bitstreams of rw words: plane b's padded row y is
// rows[(b·ph + y)·rw:][:rw], ph = InH + 2·PadH, and its last word is zero
// so that cutting a run never reads past the row. hwc is scratch of
// (rw−1)·64 bytes: each input row is first laid out pixel-major, one plane
// byte (m.Bits of the symbol) per element, and every 64 bytes of it then
// give one word of each plane.
func packRows[S int8 | uint8](rows []uint64, hwc []uint8, x []S, g ConvGeom, m *PlaneMap, rw int) {
	ph := g.InH + 2*g.PadH
	clear(rows[:m.P*ph*rw])
	clear(hwc)
	hw := g.InH * g.InW
	pre := g.PadW * g.InC // the padding bits before pixel 0
	for y := 0; y < g.InH; y++ {
		for c := 0; c < g.InC; c++ {
			spread(hwc[pre+c:], g.InC, x[c*hw+y*g.InW:c*hw+(y+1)*g.InW], &m.Bits)
		}
		planeWords(rows[(y+g.PadH)*rw:], ph*rw, hwc, m.P)
	}
}

// spread writes the plane byte bits[x[i]] of each symbol to dst[i·step]:
// one channel of an input row into its pixel-major place.
func spread[S int8 | uint8](dst []uint8, step int, x []S, bits *[256]uint8) {
	for i, v := range x {
		dst[i*step] = bits[uint8(v)]
	}
}

// planeWords writes word w of plane b of one row, from the 64 plane bytes
// of hwc at w·64, to dst[b·stride + w], for the first p planes.
func planeWords(dst []uint64, stride int, hwc []uint8, p int) {
	for w := range len(hwc) / 64 {
		var u [8]uint64
		for k := range u {
			u[k] = binary.LittleEndian.Uint64(hwc[w*64+8*k:])
		}
		for b := range p {
			dst[b*stride+w] = gatherBits(&u, uint(b))
		}
	}
}

// gatherBits returns bit b of each of the 64 bytes in u, byte i (byte
// i mod 8 of u[i/8]) in bit i. The multiply moves bit 8j of a word to bit
// 56+j with no two partial products overlapping.
func gatherBits(u *[8]uint64, b uint) uint64 {
	var v uint64
	for k, w := range u {
		v |= (((w >> b) & 0x0101010101010101) * 0x0102040810204080 >> 56) << (8 * k)
	}
	return v
}

// cutFields writes the receptive fields of output row oy out of the row
// bitstreams into fields, plane-minor: word f of plane b of position ox is
// fields[(ox·words + f)·p + b], and row kh of the field is the KW·InC bits
// at ox·StrideW·InC of padded row oy·StrideH + kh. fields holds p words
// past the last field.
func cutFields(fields, rows []uint64, g ConvGeom, rw, p, words, oy int) {
	ph := g.InH + 2*g.PadH
	run := g.KW * g.InC
	clear(fields[:(g.OutW()*words+1)*p])
	for b := 0; b < p; b++ {
		for kh := 0; kh < g.KH; kh++ {
			row := rows[(b*ph+oy*g.StrideH+kh)*rw:][:rw]
			cutRuns(fields[b:], words*p, p, kh*run, row, g.StrideW*g.InC, run, g.OutW())
		}
	}
}

// cutRuns ORs the n-bit runs of row at bits i·step, i < npos, into npos
// bit strings of dst, run i from bit dOff of the string whose word j is
// dst[i·stride + j·p]. The strings' bits from dOff on are zero, and dst
// holds a word past each string's last. Runs that start and end on word
// edges are copied word for word. Runs of one word or less, as an image's
// few channels give, have a loop of their own: one loop for both kinds
// kept its counters on the stack.
func cutRuns(dst []uint64, stride, p, dOff int, row []uint64, step, n, npos int) {
	dst = dst[dOff>>6*p:]
	switch {
	case (dOff|step|n)&63 == 0:
		for i := range npos {
			for j, v := range row[i*step>>6 : (i*step+n)>>6] {
				dst[i*stride+j*p] = v
			}
		}
	case n <= 64:
		cutShortRuns(dst, stride, p, uint(dOff&63), row, step, ^uint64(0)>>(64-n), npos)
	default:
		for i := range npos {
			cutLongRun(dst[i*stride:], p, uint(dOff&63), row, i*step, n)
		}
	}
}

// cutShortRuns is cutRuns for runs of at most one word, masked by mask,
// into the first npos strings of dst from bit ds of their first word.
// Shifts by 64 − c are split into 1 and 63 − c, so that c = 0 shifts the
// other word out and no count reaches 64.
func cutShortRuns(dst []uint64, stride, p int, ds uint, row []uint64, step int, mask uint64, npos int) {
	ds &= 63 // a no-op that spares each shift a check for counts past 63
	for i := range npos {
		s, d := i*step, i*stride
		ss := uint(s & 63)
		v := (row[s>>6]>>ss | row[s>>6+1]<<1<<(63-ss)) & mask
		dst[d] |= v << ds
		dst[d+p] |= v >> 1 >> (63 - ds)
	}
}

// cutLongRun ORs the n bits of row from bit s into the string of dst
// whose word j is dst[j·p], from bit ds of its first word.
func cutLongRun(dst []uint64, p int, ds uint, row []uint64, s, n int) {
	for d := 0; n > 0; n, s, d = n-64, s+64, d+p {
		ss := uint(s & 63)
		v := row[s>>6]>>ss | row[s>>6+1]<<1<<(63-ss)
		v &= ^uint64(0) >> (uint(64-min(n, 64)) & 63)
		dst[d] |= v << ds
		dst[d+p] |= v >> 1 >> (63 - ds)
	}
}

// ConvBitplaneBatchInto convolves B same-geometry inputs against one
// weight matrix held as bit planes: dsts[b] = rescale(W · im2col(x_b)),
// where x_b is sample b's CHW codes, each symbol of xs[b] standing for the
// code maps[b] gives it, and rescale multiplies output row o by
// outScales[b][o] (or outScales[b][0] when one tensor-wide scale is
// given). Each dsts[b] is a caller-provided rank-2 (OutC × OutH·OutW)
// float32 tensor, fully overwritten. The caller finds the maps
// (Int8PlaneMap, NewPlaneMap).
//
// Work is split across the package worker pool by (sample, output row),
// and by blocks of four filters too when there are fewer rows than
// workers, as a one-pixel Dense at batch 1 has. A worker packs the row
// bitstreams of each sample it reaches into its own borrowed scratch, so
// a sample split between two workers is packed twice and no plane buffer
// spans the batch. Each output element is written by exactly one worker
// from an exact integer sum, so each dsts[b] is the same for any worker
// count and batch, and equal to the direct convolution of the codes.
func ConvBitplaneBatchInto[S int8 | uint8](dsts []*Tensor, w *BitplaneWeights, xs [][]S, maps []PlaneMap, g ConvGeom, outScales [][]float32) error {
	if err := g.Validate(); err != nil {
		return err
	}
	bsz := len(dsts)
	if bsz == 0 || len(xs) != bsz || len(outScales) != bsz || len(maps) != bsz {
		return fmt.Errorf("tensor: ConvBitplaneBatchInto wants equal non-zero dsts/xs/maps/outScales, got %d/%d/%d/%d",
			len(dsts), len(xs), len(maps), len(outScales))
	}
	if g != w.g {
		return fmt.Errorf("tensor: ConvBitplaneBatchInto geometry %+v, weights packed for %+v", g, w.g)
	}
	oh, ow := g.OutH(), g.OutW()
	planes := 0
	for b := range bsz {
		switch {
		case len(xs[b]) != g.InC*g.InH*g.InW:
			return fmt.Errorf("tensor: ConvBitplaneBatchInto input %d length %d does not match geometry %dx%dx%d",
				b, len(xs[b]), g.InC, g.InH, g.InW)
		case dsts[b].Rank() != 2 || dsts[b].shape[0] != w.outC || dsts[b].shape[1] != oh*ow:
			return fmt.Errorf("tensor: ConvBitplaneBatchInto dst %d %v, want %dx%d", b, dsts[b].shape, w.outC, oh*ow)
		case len(outScales[b]) != 1 && len(outScales[b]) != w.outC:
			return fmt.Errorf("tensor: ConvBitplaneBatchInto wants 1 or %d output scales for sample %d, got %d",
				w.outC, b, len(outScales[b]))
		case maps[b].P < 1 || maps[b].P > len(maps[b].W):
			return fmt.Errorf("tensor: ConvBitplaneBatchInto plane map %d has %d planes, want 1 to %d", b, maps[b].P, len(maps[b].W))
		}
		planes = max(planes, maps[b].P)
	}
	nw := w.words
	ph := g.InH + 2*g.PadH
	rw := ((g.InW+2*g.PadW)*g.InC+63)/64 + 1
	blocks := (w.outC + 3) / 4
	units := bsz * oh
	split := 1 // filter-block groups per (sample, output row)
	if wk := maxWorkers.Get(); units < wk {
		split = min(blocks, (wk+units-1)/units)
	}
	parallelFor(units*split, 4*blocks*ow*nw*planes*w.wplanes/split, func(lo, hi int) {
		// One sample's row bitstreams, then one output row's fields.
		scratch := uint64Arena.borrow(planes*ph*rw + (ow*nw+1)*planes)
		defer uint64Arena.release(scratch)
		rows, fields := scratch[:planes*ph*rw], scratch[planes*ph*rw:]
		// The pixel-major bytes of one input row: on the stack for every
		// CNV layer, so a call borrows one slice, not two.
		var row [2048]uint8
		hwc := row[:min((rw-1)*64, len(row))]
		if n := (rw - 1) * 64; n > len(row) {
			wide := uint8Arena.borrow(n)
			defer uint8Arena.release(wide)
			hwc = wide // released through wide, so that row stays on the stack
		}
		for u := lo; u < hi; u++ {
			r, part := u/split, u%split
			b, oy := r/oh, r%oh
			m := &maps[b]
			if u == lo || oy == 0 && part == 0 {
				packRows(rows, hwc, xs[b], g, m, rw)
			}
			if u == lo || part == 0 {
				cutFields(fields, rows, g, rw, m.P, nw, oy)
			}
			bitplaneRow(dsts[b].data, w, fields, oy, m, outScales[b], part*blocks/split, (part+1)*blocks/split)
		}
	})
	return nil
}

// bitplaneRow writes filter blocks [b0, b1) of output row oy of one sample
// into dst (OutC × OH·OW) from the row's fields: per block of four
// filters, bitDot4 forms Σ_b ω_b·p_b at each of the row's positions and
// writes float32(Σ_b ω_b·p_b − N·Σ_b ω_b)·scale, the int32 sum Σ w·x
// rescaled, into the filters' output rows. Weights of more than one plane
// go to bitplaneRowWide.
func bitplaneRow(dst []float32, w *BitplaneWeights, fields []uint64, oy int, m *PlaneMap, s []float32, b0, b1 int) {
	pw := newPlaneWeights(m.W[:m.P])
	if w.wplanes > 1 {
		bitplaneRowWide(dst, w, fields, oy, &pw, s, b0, b1)
		return
	}
	g := w.g
	ow := g.OutW()
	cols := g.OutH() * ow
	nw := w.words
	wsum := pw.sum()
	for blk := b0; blk < b1; blk++ {
		o := 4 * blk
		ep := blockEpilogue{n: min(4, w.outC-o)}
		for i := range ep.n {
			ep.corr[i] = w.negs[o+i] * wsum
			ep.scale[i] = s[min(o+i, len(s)-1)] // one scale, or one per channel
		}
		bitDot4(dst[o*cols+oy*ow:], cols, ow, w.planes[blk*nw*8:(blk+1)*nw*8], fields, &pw, &ep)
	}
}

// wideRun is how many output positions bitplaneRowWide sums at a time.
const wideRun = 64

// bitplaneRowWide is bitplaneRow for P_w > 1 weight planes. Per block of
// four filters and run of up to wideRun positions, bitDot4 writes each
// weight plane's sum s_a at unit scale, exact in float32, into a buffer on
// the stack; the planes add in int32 as Σ 2^a·s_a, and the sum is rescaled
// as float32(sum)·scale.
func bitplaneRowWide(dst []float32, w *BitplaneWeights, fields []uint64, oy int, pw *planeWeights, s []float32, b0, b1 int) {
	g := w.g
	ow := g.OutW()
	cols := g.OutH() * ow
	nw := w.words
	p := len(pw.w)
	wsum := pw.sum()
	blocks := (w.outC + 3) / 4
	var part [4 * wideRun]float32
	var acc [4 * wideRun]int32
	for blk := b0; blk < b1; blk++ {
		o := 4 * blk
		n := min(4, w.outC-o)
		for x0 := 0; x0 < ow; x0 += wideRun {
			npos := min(wideRun, ow-x0)
			clear(acc[:])
			for a := range w.wplanes {
				ep := blockEpilogue{n: n, scale: [4]float32{1, 1, 1, 1}}
				for i := range n {
					ep.corr[i] = w.negs[a*w.outC+o+i] * wsum
				}
				wb := w.planes[(a*blocks+blk)*nw*8 : (a*blocks+blk+1)*nw*8]
				bitDot4(part[:], wideRun, npos, wb, fields[x0*nw*p:], pw, &ep)
				for i := range n {
					for j, v := range part[i*wideRun : i*wideRun+npos] {
						acc[i*wideRun+j] += int32(v) << a
					}
				}
			}
			for i := range n {
				sc := s[min(o+i, len(s)-1)]
				out := dst[(o+i)*cols+oy*ow+x0:][:npos]
				for j, v := range acc[i*wideRun : i*wideRun+npos] {
					out[j] = float32(v) * sc
				}
			}
		}
	}
}

// planeWeights are the plane weights ω_b as bitDot4 reads them: w for the
// Go loop, and for the assembly each ω_b in 32 bytes and the number of
// filter words whose weighted byte counts fit its int16 lanes.
type planeWeights struct {
	w     []int8
	bcast [8][32]int8
	flush int
}

// newPlaneWeights returns the plane weights w. A word adds at most
// 16·Σ|ω_b| to an int16 lane (two bytes of at most 8 bits each), so flush
// words fit before the lanes must widen; at least one does, as
// 16·8·128 < 2¹⁵.
func newPlaneWeights(w []int8) planeWeights {
	pw := planeWeights{w: w, flush: 32767}
	abs := 0
	for b, v := range w {
		for i := range pw.bcast[b] {
			pw.bcast[b][i] = v
		}
		abs += max(int(v), -int(v))
	}
	if abs > 0 {
		pw.flush = 32767 / (16 * abs)
	}
	return pw
}

// sum is Σ_b ω_b, the factor of a filter's N in its correction.
func (pw *planeWeights) sum() int32 {
	var s int32
	for _, v := range pw.w {
		s += int32(v)
	}
	return s
}

// blockEpilogue is how bitDot4 turns the sums of a block's first n
// filters into outputs: filter i's sum less corr[i], converted to float32
// and multiplied by scale[i].
type blockEpilogue struct {
	corr  [4]int32
	scale [4]float32
	n     int
}

// bitDot4Go forms, for each of the npos fields of patch and each filter i
// of the block wb, the weighted count Σ_b ω_b·p_b with
// p_b = Σ pop(m&(a_b^n)) over the filter's words, and writes
// float32(Σ_b ω_b·p_b − ep.corr[i])·ep.scale[i] into out[i·stride + pos]
// for i < ep.n. A field is len(wb)/8 words of len(pw.w) planes each,
// plane-minor. It is bitDot4 off amd64 and on CPUs without AVX2, and the
// reference the assembly body is tested against.
func bitDot4Go(out []float32, stride, npos int, wb, patch []uint64, pw *planeWeights, ep *blockEpilogue) {
	filter := len(wb) / 8
	p := len(pw.w)
	for pos := range npos {
		var s [4]int32
		x := patch[pos*filter*p : (pos+1)*filter*p]
		for f := range filter {
			q := wb[8*f : 8*f+8 : 8*f+8]
			for b, wt := range pw.w {
				v := x[f*p+b]
				s[0] += int32(wt) * int32(bits.OnesCount64(q[0]&(v^q[4])))
				s[1] += int32(wt) * int32(bits.OnesCount64(q[1]&(v^q[5])))
				s[2] += int32(wt) * int32(bits.OnesCount64(q[2]&(v^q[6])))
				s[3] += int32(wt) * int32(bits.OnesCount64(q[3]&(v^q[7])))
			}
		}
		for i := range ep.n {
			out[i*stride+pos] = float32(s[i]-ep.corr[i]) * ep.scale[i]
		}
	}
}
