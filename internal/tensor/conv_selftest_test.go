package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Randomized brute-force self-test of the integer convolution, in the
// spirit of mumax3's conv self-tests: draw random geometries, run the
// bit-plane kernel, and demand exact agreement with a transparent serial
// reference.
// Integer accumulation is exact, so the comparison is == on every element
// — no tolerance — and repeating the run under different worker caps must
// be bit-identical too.

// naiveConvInt8 is the obviously-correct reference: the direct six-loop
// convolution with int64 accumulation, rescaled through the same
// float32(int32)*scale expression the kernel uses.
func naiveConvInt8(w []int8, x []int8, g ConvGeom, outC int, outScales []float32) []float32 {
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	out := make([]float32, outC*oh*ow)
	for o := 0; o < outC; o++ {
		s := outScales[0]
		if len(outScales) > 1 {
			s = outScales[o]
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int64
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.StrideH - g.PadH + kh
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.StrideW - g.PadW + kw
							if ix < 0 || ix >= g.InW {
								continue
							}
							wv := w[o*k+(c*g.KH+kh)*g.KW+kw]
							xv := x[(c*g.InH+iy)*g.InW+ix]
							acc += int64(wv) * int64(xv)
						}
					}
				}
				out[(o*oh+oy)*ow+ox] = float32(int32(acc)) * s
			}
		}
	}
	return out
}

// randInt8s fills a zero-heavy random int8 slice over the whole int8
// range, −128 included: low-bit weight grids are mostly zero, and a wide
// code sets several weight planes.
func randInt8s(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = int8(rng.Intn(3) - 1) // −1, 0, +1: the W2 regime
		default:
			s[i] = int8(rng.Intn(256) - 128)
		}
	}
	return s
}

func randConvGeom(rng *rand.Rand) ConvGeom {
	for {
		g := ConvGeom{
			InC:     1 + rng.Intn(8),
			InH:     1 + rng.Intn(14),
			InW:     1 + rng.Intn(14),
			KH:      1 + rng.Intn(5),
			KW:      1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3),
			StrideW: 1 + rng.Intn(3),
			PadH:    rng.Intn(3),
			PadW:    rng.Intn(3),
		}
		if g.Validate() == nil {
			return g
		}
	}
}

// filled returns n copies of the code v.
func filled(v int8, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// pixelGeom is a 1×1 convolution over one pixel of inC channels.
func pixelGeom(inC int) ConvGeom {
	return ConvGeom{InC: inC, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
}

// bitplaneCodeSets are activation code sets for the bit-plane kernel, with
// the planes the decomposition rule gives them: the sets CNV's 2-bit
// layers produce (three, two, one and no nonzero codes, the last from an
// all-zero input) and two more that decompose into two planes, then sets
// that take their two's complement, seven planes when no code is negative
// and eight otherwise, the whole int8 range last.
var bitplaneCodeSets = []struct {
	codes  []int8
	planes int
}{
	{[]int8{0, 42, 85, 127}, 2},
	{[]int8{0, 64, 127}, 2},
	{[]int8{0, 127}, 1},
	{[]int8{0}, 1},
	{[]int8{0, 3, 7, 10}, 2},
	{[]int8{42, 85}, 2},
	{[]int8{0, -42, 42}, 8},       // a negative code
	{[]int8{0, 40, 85, 127}, 7},   // c3 ≠ c1+c2
	{[]int8{0, 1, 2, 3, 4}, 7},    // four nonzero codes
	{[]int8{-127, 0, 1, 127}, 8},  // signed input, as an image gives
	{[]int8{0, 64, 127, -1}, 8},   // one stray negative code
	{[]int8{0, 100, 110, 120}, 7}, // three codes, none the sum of two
	{allCodes(), 8},
}

// allCodes returns every int8 code, −128 to 127.
func allCodes() []int8 {
	codes := make([]int8, 256)
	for i := range codes {
		codes[i] = int8(i - 128)
	}
	return codes
}

// drawCodes returns n codes from set, every code of the set present (when
// n allows) so a set cannot pass on a subset that decomposes otherwise.
func drawCodes(rng *rand.Rand, set []int8, n int) []int8 {
	x := make([]int8, n)
	for i := range x {
		x[i] = set[rng.Intn(len(set))]
	}
	for i, p := range rng.Perm(n)[:min(n, len(set))] {
		x[p] = set[i]
	}
	return x
}

// ternaryCodes returns n weight codes: {−1, 1} (W1, binary) or {−1, 0, 1}
// (W2, ternary).
func ternaryCodes(rng *rand.Rand, n int, binary bool) []int8 {
	w := make([]int8, n)
	for i := range w {
		if binary {
			w[i] = int8(2*rng.Intn(2) - 1)
		} else {
			w[i] = int8(rng.Intn(3) - 1)
		}
	}
	return w
}

// int8PlaneMaps returns every sample's Int8PlaneMap.
func int8PlaneMaps(xs [][]int8) []PlaneMap {
	maps := make([]PlaneMap, len(xs))
	for b, x := range xs {
		maps[b] = Int8PlaneMap(x)
	}
	return maps
}

// tableSymbols recodes a sample as internal/nn's ladder levels reach the
// kernel: each distinct code becomes a symbol, an index into a table of
// codes. It returns the symbols and the table.
func tableSymbols(x []int8) ([]uint8, []int8) {
	var table []int8
	syms := make([]uint8, len(x))
	for i, v := range x {
		s := slices.Index(table, v)
		if s < 0 {
			s = len(table)
			table = append(table, v)
		}
		syms[i] = uint8(s)
	}
	return syms, table
}

// nanOutputs returns one (rows × cols) output per sample filled with NaN,
// so an element the kernel leaves unwritten cannot equal the reference.
func nanOutputs(bsz, rows, cols int) []*Tensor {
	dsts := make([]*Tensor, bsz)
	for b := range dsts {
		dsts[b] = New(rows, cols)
		for i := range dsts[b].data {
			dsts[b].data[i] = float32(math.NaN())
		}
	}
	return dsts
}

// weightPlanes returns the weight planes codes w need: the fewest P ≥ 1
// with 2^P > max|w|.
func weightPlanes(w []int8) int {
	top := 0
	for _, v := range w {
		top = max(top, int(v), -int(v))
	}
	p := 1
	for 1<<p <= top {
		p++
	}
	return p
}

// checkBitplaneBatch runs one batch on the bit planes at 1, 2, 3 and
// NumCPU workers, with its int8 codes as symbols and again with them
// recoded as table symbols (NewPlaneMap): sample b must take planes[b]
// activation planes both ways (any number when planes is nil), the
// weights weightPlanes(w) weight planes, and every output must equal the
// six-loop reference exactly.
func checkBitplaneBatch(t *testing.T, rng *rand.Rand, name string, w *Int8Matrix, xs [][]int8, g ConvGeom, planes []int) {
	t.Helper()
	wb, err := PackBitplaneWeights(w, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := weightPlanes(w.Data); wb.wplanes != want {
		t.Fatalf("%s: %d weight planes, want %d", name, wb.wplanes, want)
	}
	cols := g.OutH() * g.OutW()
	scales := make([][]float32, len(xs))
	want := make([][]float32, len(xs))
	syms := make([][]uint8, len(xs))
	tableMaps := make([]PlaneMap, len(xs))
	codeMaps := int8PlaneMaps(xs)
	for b := range xs {
		scales[b] = []float32{rng.Float32() + 0.5}
		if rng.Intn(2) == 0 {
			scales[b] = make([]float32, w.Rows)
			for i := range scales[b] {
				scales[b][i] = rng.Float32() + 0.5
			}
		}
		want[b] = naiveConvInt8(w.Data, xs[b], g, w.Rows, scales[b])
		var table []int8
		syms[b], table = tableSymbols(xs[b])
		tableMaps[b] = NewPlaneMap(table)
		if planes != nil && (codeMaps[b].P != planes[b] || tableMaps[b].P != planes[b]) {
			t.Fatalf("%s: sample %d on %d planes as codes, %d as table symbols; want %d",
				name, b, codeMaps[b].P, tableMaps[b].P, planes[b])
		}
	}
	for _, workers := range []int{1, 2, 3, runtime.NumCPU()} {
		for _, route := range []struct {
			name string
			run  func(dsts []*Tensor) error
		}{
			{"int8 codes", func(dsts []*Tensor) error { return ConvBitplaneBatchInto(dsts, wb, xs, codeMaps, g, scales) }},
			{"table symbols", func(dsts []*Tensor) error { return ConvBitplaneBatchInto(dsts, wb, syms, tableMaps, g, scales) }},
		} {
			dsts := nanOutputs(len(xs), w.Rows, cols)
			prev := SetMaxWorkers(workers)
			err := route.run(dsts)
			SetMaxWorkers(prev)
			if err != nil {
				t.Fatalf("%s %+v %s: %v", name, g, route.name, err)
			}
			for b := range xs {
				for i, v := range dsts[b].Data() {
					if v != want[b][i] {
						t.Fatalf("%s %+v outC=%d workers=%d %s sample %d: out[%d] = %v, naive %v",
							name, g, w.Rows, workers, route.name, b, i, v, want[b][i])
					}
				}
			}
		}
	}
}

// repeatPlanes returns n copies of p.
func repeatPlanes(p, n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = p
	}
	return ps
}

// symmetricCodes draws weight codes in [−top, top], one of them ±top so
// that the grid needs all of its weight planes.
func symmetricCodes(top int) func(*rand.Rand, int) []int8 {
	return func(rng *rand.Rand, n int) []int8 {
		w := make([]int8, n)
		for i := range w {
			w[i] = int8(rng.Intn(2*top+1) - top)
		}
		w[rng.Intn(n)] = int8(top * (2*rng.Intn(2) - 1))
		return w
	}
}

// weightGrids are the weight codes of the self-test: W1 (binary) and W2
// (ternary) on one weight plane, W3, W4 and W8 grids on two, three and
// seven, and the whole int8 range, −128 included, on eight.
var weightGrids = []struct {
	name  string
	codes func(*rand.Rand, int) []int8
}{
	{"W1", func(rng *rand.Rand, n int) []int8 { return ternaryCodes(rng, n, true) }},
	{"W2", func(rng *rand.Rand, n int) []int8 { return ternaryCodes(rng, n, false) }},
	{"W3", symmetricCodes(3)},
	{"W4", symmetricCodes(7)},
	{"W8", symmetricCodes(127)},
	{"int8", func(rng *rand.Rand, n int) []int8 {
		w := randInt8s(rng, n)
		w[rng.Intn(n)] = -128
		return w
	}},
}

// TestConvBitplaneSelfTest checks the bit-plane kernel against the six-loop
// reference with ==: InC on both sides of every 64-bit word edge, every
// weight grid of weightGrids, every code set of bitplaneCodeSets, padding
// and stride, partial blocks of four filters, and batches of one to three;
// then constant filters and an inner dimension just below maxBitplaneK.
// Full int8 weights on random geometries and batches are
// TestConvInt8SelfTest's and TestConvInt8BatchSelfTest's.
func TestConvBitplaneSelfTest(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	prevGrain := SetParallelGrain(1)
	defer SetParallelGrain(prevGrain)
	for _, inC := range []int{1, 3, 7, 63, 64, 65, 128, 300} {
		for _, grid := range weightGrids {
			for si, set := range bitplaneCodeSets {
				g := ConvGeom{InC: inC, InH: 3 + rng.Intn(5), InW: 3 + rng.Intn(5), KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
					StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2), PadH: rng.Intn(2), PadW: rng.Intn(2)}
				if si%3 == 0 { // CNV's shape: 3×3, stride 1, no padding
					g = ConvGeom{InC: inC, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
				}
				outC := 1 + rng.Intn(9)
				k := inC * g.KH * g.KW
				w := &Int8Matrix{Rows: outC, Cols: k, Data: grid.codes(rng, outC*k)}
				xs := make([][]int8, 1+rng.Intn(3))
				for b := range xs {
					xs[b] = drawCodes(rng, set.codes, inC*g.InH*g.InW)
				}
				name := fmt.Sprintf("InC=%d %s codes=%v", inC, grid.name, set.codes)
				checkBitplaneBatch(t, rng, name, w, xs, g, repeatPlanes(set.planes, len(xs)))
			}
		}
	}

	// The edges of the mask–sign identity: filters of all −1 (the largest
	// correction N), all 0 and all +1 beside random ones, OutC = 7 so the
	// last block of four carries a zero filter, and padding on both axes,
	// where a word v = 0 contributes pop(m&n) = pop(n) and so nothing net.
	for _, inC := range []int{1, 3, 63, 64, 65, 130} {
		g := ConvGeom{InC: inC, InH: 4, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 2, PadH: 2, PadW: 1}
		k := inC * g.KH * g.KW
		w := &Int8Matrix{Rows: 7, Cols: k, Data: ternaryCodes(rng, 7*k, false)}
		const random = 2 // not a weight code here: the filter stays random
		for o, fill := range []int8{-1, 0, 1, random, random, 1, -1} {
			if fill != random {
				for i := range k {
					w.Data[o*k+i] = fill
				}
			}
		}
		for _, set := range bitplaneCodeSets[:4] {
			xs := [][]int8{drawCodes(rng, set.codes, inC*g.InH*g.InW), drawCodes(rng, set.codes, inC*g.InH*g.InW)}
			checkBitplaneBatch(t, rng, fmt.Sprintf("InC=%d constant filters codes=%v", inC, set.codes), w, xs, g, repeatPlanes(set.planes, 2))
		}
		xs := [][]int8{drawCodes(rng, allCodes(), inC*g.InH*g.InW)}
		checkBitplaneBatch(t, rng, fmt.Sprintf("InC=%d constant filters, every code", inC), w, xs, g, []int{8})
	}

	// The largest sums: k = 131067, just below maxBitplaneK, with every code
	// c1+c2 (both planes all ones) and then every code −128 (the sign
	// plane all ones). An all +1 filter sums ±127·k or −128·k, an all −1
	// filter the negation, from counts of k on every plane.
	g := ConvGeom{InC: 14563, InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	k := g.InC * g.KH * g.KW
	if k >= maxBitplaneK || maxBitplaneK-k > 8 {
		t.Fatalf("near-bound layer has k = %d, want just below %d", k, maxBitplaneK)
	}
	w := &Int8Matrix{Rows: 5, Cols: k, Data: ternaryCodes(rng, 5*k, false)}
	for o, fill := range []int8{1, -1, 1, -1} {
		for i := range k {
			w.Data[o*k+i] = fill
		}
	}
	wb, err := PackBitplaneWeights(w, g)
	if err != nil {
		t.Fatalf("near-bound layer: %v", err)
	}
	for _, code := range []int8{42 + 85, -128} {
		x := make([]int8, g.InC*g.InH*g.InW)
		for i := range x {
			x[i] = code
		}
		m := Int8PlaneMap(x)
		if code > 0 {
			m = PlaneMap{P: 2, W: [8]int8{42, 85}}
			m.Bits[42+85] = 3
		}
		scales := [][]float32{{1}}
		dst := New(w.Rows, 1)
		if err := ConvBitplaneBatchInto([]*Tensor{dst}, wb, [][]int8{x}, []PlaneMap{m}, g, scales); err != nil {
			t.Fatal(err)
		}
		want := naiveConvInt8(w.Data, x, g, w.Rows, scales[0])
		if got := dst.Data(); !slices.Equal(got, want) || got[0] != float32(int(code)*k) || got[1] != -float32(int(code)*k) {
			t.Fatalf("near-bound layer, code %d on %d planes: got %v, want %v (±%d·%d in the constant filters)", code, m.P, got, want, code, k)
		}
	}
}

// TestConvInt8SelfTest checks int8 weights on the bit planes against the
// six-loop reference with ==: 60 random geometries and filter counts,
// weights and inputs over the whole int8 range, mostly zero, at 1, 2, 3
// and NumCPU workers.
func TestConvInt8SelfTest(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	prevGrain := SetParallelGrain(1) // force the parallel path even for tiny shapes
	defer SetParallelGrain(prevGrain)
	for trial := range 60 {
		g := randConvGeom(rng)
		outC := 1 + rng.Intn(9)
		w := &Int8Matrix{Rows: outC, Cols: g.InC * g.KH * g.KW, Data: randInt8s(rng, outC*g.InC*g.KH*g.KW)}
		xs := [][]int8{randInt8s(rng, g.InC*g.InH*g.InW)}
		checkBitplaneBatch(t, rng, fmt.Sprintf("random trial %d", trial), w, xs, g, nil)
	}
}

// TestConvInt8BatchSelfTest covers the batch regimes with int8 weights and
// inputs: B = 1…9 over 1×1 to 30×30 outputs, every OutC mod 4; one-pixel
// 1×1 convolutions, the geometry a Dense layer runs as, with InC on both
// sides of four field words and at eight and B up to 17; small random
// one-pixel shapes; and every code at the int8 extremes on both operands.
func TestConvInt8BatchSelfTest(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	prevGrain := SetParallelGrain(1)
	defer SetParallelGrain(prevGrain)
	randomBatch := func(g ConvGeom, outC, bsz int, name string) {
		w := &Int8Matrix{Rows: outC, Cols: g.InC * g.KH * g.KW, Data: randInt8s(rng, outC*g.InC*g.KH*g.KW)}
		xs := make([][]int8, bsz)
		for b := range xs {
			xs[b] = randInt8s(rng, g.InC*g.InH*g.InW)
		}
		checkBitplaneBatch(t, rng, fmt.Sprintf("%s B=%d outC=%d", name, bsz, outC), w, xs, g, nil)
	}
	for bsz := 1; bsz <= 9; bsz++ {
		for si, out := range []int{1, 3, 10, 30} {
			if testing.Short() && out == 30 && bsz > 2 {
				continue
			}
			g := ConvGeom{InC: []int{2, 29}[(bsz+si)%2], InH: out + 2, InW: out + 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
			randomBatch(g, 4+(bsz+si)%4, bsz, fmt.Sprintf("%d×%d outputs", out, out))
		}
	}
	for _, inC := range []int{255, 256, 257, 512} {
		for _, bsz := range []int{1, 8, 17} {
			randomBatch(pixelGeom(inC), 5, bsz, fmt.Sprintf("one pixel InC=%d", inC))
		}
	}
	for range 20 {
		randomBatch(pixelGeom(1+rng.Intn(40)), 1+rng.Intn(20), 1+rng.Intn(20), "small one pixel")
	}

	g := ConvGeom{InC: 29, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	for _, wc := range []int8{-128, 127} {
		for _, xc := range []int8{-128, 127} {
			w := &Int8Matrix{Rows: 7, Cols: 29 * 9, Data: filled(wc, 7*29*9)}
			xs := [][]int8{filled(xc, 29*25), filled(xc, 29*25)}
			checkBitplaneBatch(t, rng, fmt.Sprintf("every weight %d, every input %d", wc, xc), w, xs, g, nil)
		}
	}
}

// TestInt8LaneBound pins the int32 accumulator bound: a weight plane's sum
// stays below 2²⁴ and the total fits int32 while k < maxBitplaneK. At
// k = maxBitplaneK−1, filters of all −128 and all 127 on inputs of all
// −128 give ±k·128·128 and −k·127·128 exactly, on eight weight planes,
// and k = maxBitplaneK is refused.
func TestInt8LaneBound(t *testing.T) {
	if maxBitplaneK*128 != 1<<24 || maxBitplaneK*128*128 != 1<<31 {
		t.Fatalf("maxBitplaneK = %d, want 2^24/128", maxBitplaneK)
	}
	k := maxBitplaneK - 1
	w := &Int8Matrix{Rows: 3, Cols: k, Data: slices.Concat(filled(-128, k), filled(127, k), filled(-128, k))}
	x := filled(-128, k)
	wb, err := PackBitplaneWeights(w, pixelGeom(k))
	if err != nil || wb.wplanes != 8 {
		t.Fatalf("k=%d: error %v, want eight weight planes", k, err)
	}
	dst := New(3, 1)
	if err := ConvBitplaneBatchInto([]*Tensor{dst}, wb, [][]int8{x}, []PlaneMap{Int8PlaneMap(x)}, pixelGeom(k), [][]float32{{1}}); err != nil {
		t.Fatal(err)
	}
	lo, hi := float32(int32(k*128*128)), float32(int32(-k*127*128))
	if d := dst.Data(); d[0] != lo || d[1] != hi || d[2] != lo {
		t.Fatalf("k=%d: got %v, want [%v %v %v]", k, d, lo, hi, lo)
	}

	if _, err := PackBitplaneWeights(NewInt8Matrix(1, maxBitplaneK), pixelGeom(maxBitplaneK)); err == nil {
		t.Fatalf("inner dimension %d, past the bound, packed", maxBitplaneK)
	}
}

// TestConvInt8Validation checks the arguments of an int8 weight grid on
// eight weight planes: weights of the wrong width or truncated do not
// pack, a bad input, output or scale count is refused, and per-channel
// scales are accepted and applied as the reference applies them.
func TestConvInt8Validation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := &Int8Matrix{Rows: 3, Cols: 2 * 3 * 3, Data: randInt8s(rng, 3*2*3*3)}
	w.Data[0] = -128
	if _, err := PackBitplaneWeights(NewInt8Matrix(3, 5), g); err == nil {
		t.Fatal("weights of the wrong width packed")
	}
	if _, err := PackBitplaneWeights(&Int8Matrix{Rows: 3, Cols: 2 * 3 * 3, Data: w.Data[:len(w.Data)-1]}, g); err == nil {
		t.Fatal("truncated weights packed")
	}
	wb, err := PackBitplaneWeights(w, g)
	if err != nil || wb.wplanes != 8 {
		t.Fatalf("error %v, want eight weight planes", err)
	}
	x := randInt8s(rng, 2*4*4)
	maps := []PlaneMap{Int8PlaneMap(x)}
	cols := g.OutH() * g.OutW()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"bad input", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x[:7]}, maps, g, [][]float32{{1}})
		}},
		{"bad dst", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(4, cols)}, wb, [][]int8{x}, maps, g, [][]float32{{1}})
		}},
		{"bad scales", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x}, maps, g, [][]float32{{1, 2}})
		}},
	} {
		if err := tc.run(); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	scales := []float32{1, 2, 3}
	dst := New(3, cols)
	if err := ConvBitplaneBatchInto([]*Tensor{dst}, wb, [][]int8{x}, maps, g, [][]float32{scales}); err != nil {
		t.Fatalf("per-channel scales rejected: %v", err)
	}
	if want := naiveConvInt8(w.Data, x, g, 3, scales); !slices.Equal(dst.Data(), want) {
		t.Fatalf("per-channel scales: got %v, naive %v", dst.Data(), want)
	}
}

// TestConvBitplaneFallbacks covers the batches the kernel serves sample
// by sample: a batch mixing two-, seven- and eight-plane samples runs in
// one call, each sample on its own planes, and a weight code of ±2 in a
// ternary grid runs on two weight planes.
func TestConvBitplaneFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	g := ConvGeom{InC: 70, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	k := g.InC * g.KH * g.KW
	w := &Int8Matrix{Rows: 6, Cols: k, Data: ternaryCodes(rng, 6*k, false)}
	xs := make([][]int8, 4)
	for b := range xs {
		xs[b] = drawCodes(rng, []int8{0, 42, 85, 127}, g.InC*g.InH*g.InW)
	}
	checkBitplaneBatch(t, rng, "all samples on two planes", w, xs, g, []int{2, 2, 2, 2})
	xs[1] = drawCodes(rng, []int8{-128, 0, 127}, len(xs[1]))
	xs[2] = drawCodes(rng, []int8{0, 40, 85, 127}, len(xs[2]))
	checkBitplaneBatch(t, rng, "mixed planes", w, xs, g, []int{2, 8, 7, 2})

	for _, c := range []int8{2, -2} {
		w2 := &Int8Matrix{Rows: w.Rows, Cols: k, Data: append([]int8(nil), w.Data...)}
		w2.Data[rng.Intn(len(w2.Data))] = c
		if wb, err := PackBitplaneWeights(w2, g); err != nil || wb.wplanes != 2 {
			t.Fatalf("weight code %d: error %v, want two weight planes", c, err)
		}
		checkBitplaneBatch(t, rng, fmt.Sprintf("weight code %d", c), w2, xs, g, []int{2, 8, 7, 2})
	}
}

// TestConvBitplaneFilterSplit covers the split by filter blocks: a
// one-pixel geometry (a Dense layer as the kernels see it) at batch 1 and
// 2 has fewer (sample, output row) units than workers, so each unit's
// filter blocks are spread over the workers. Every output must be written
// once, exactly, for any worker count and filter count, partial last
// block included.
func TestConvBitplaneFilterSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	prevGrain := SetParallelGrain(1)
	defer SetParallelGrain(prevGrain)
	for _, outC := range []int{1, 3, 4, 5, 8, 13, 64} {
		for _, inC := range []int{27, 784} {
			g := ConvGeom{InC: inC, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
			w := &Int8Matrix{Rows: outC, Cols: inC, Data: ternaryCodes(rng, outC*inC, false)}
			for _, bsz := range []int{1, 2} {
				xs := make([][]int8, bsz)
				for b := range xs {
					xs[b] = drawCodes(rng, allCodes(), inC)
				}
				wb, err := PackBitplaneWeights(w, g)
				if err != nil {
					t.Fatal(err)
				}
				maps := int8PlaneMaps(xs)
				scales := make([][]float32, bsz)
				for b := range scales {
					scales[b] = []float32{0.5 + float32(b)}
				}
				for _, workers := range []int{1, 2, 3, 4, 7, 16} {
					dsts := nanOutputs(bsz, outC, 1)
					prev := SetMaxWorkers(workers)
					err := ConvBitplaneBatchInto(dsts, wb, xs, maps, g, scales)
					SetMaxWorkers(prev)
					if err != nil {
						t.Fatal(err)
					}
					for b, x := range xs {
						if want := naiveConvInt8(w.Data, x, g, outC, scales[b]); !slices.Equal(dsts[b].Data(), want) {
							t.Fatalf("outC=%d InC=%d B=%d workers=%d sample %d: %v, naive %v",
								outC, inC, bsz, workers, b, dsts[b].Data(), want)
						}
					}
				}
			}
		}
	}
}

func TestConvBitplaneValidation(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	w := NewInt8Matrix(3, 2*3*3)
	wb, err := PackBitplaneWeights(w, g)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]int8, 2*4*4)
	cols := g.OutH() * g.OutW()
	other := g
	other.PadH = 1
	maps := []PlaneMap{{P: 1}}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"other geometry", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, other.OutH()*other.OutW())}, wb, [][]int8{x}, maps, other, [][]float32{{1}})
		}},
		{"bad input", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x[:7]}, maps, g, [][]float32{{1}})
		}},
		{"bad dst", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(4, cols)}, wb, [][]int8{x}, maps, g, [][]float32{{1}})
		}},
		{"bad scales", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x}, maps, g, [][]float32{{1, 2}})
		}},
		{"missing plane map", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x}, nil, g, [][]float32{{1}})
		}},
		{"no planes", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x}, []PlaneMap{{}}, g, [][]float32{{1}})
		}},
		{"nine planes", func() error {
			return ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x}, []PlaneMap{{P: 9}}, g, [][]float32{{1}})
		}},
		{"empty batch", func() error {
			return ConvBitplaneBatchInto[int8](nil, wb, nil, nil, g, nil)
		}},
	} {
		if err := tc.run(); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	for _, scales := range [][]float32{{1}, {1, 2, 3}} {
		if err := ConvBitplaneBatchInto([]*Tensor{New(3, cols)}, wb, [][]int8{x}, maps, g, [][]float32{scales}); err != nil {
			t.Fatalf("a valid call with %d scales refused: %v", len(scales), err)
		}
	}
}

// planeFields splits npos fields of filter words a plane into the planes
// of m: code i of codes (64·filter a field) sets bit i mod 64 of word
// i/64 of plane b where bit b of m.Bits[code] is set. The fields are
// plane-minor, as bitDot4 reads them.
func planeFields(m *PlaneMap, codes []int8, filter, npos int) []uint64 {
	patch := make([]uint64, npos*filter*m.P)
	for pos := range npos {
		for i, v := range codes[pos*64*filter : (pos+1)*64*filter] {
			for b := range m.P {
				if m.Bits[uint8(v)]>>b&1 != 0 {
					patch[(pos*filter+i/64)*m.P+b] |= 1 << (i % 64)
				}
			}
		}
	}
	return patch
}

// checkBitDot4 runs bitDot4 and the Go loop on the same npos fields with
// plane weights w and epilogue ep, into rows npos+3 apart that hold a NaN
// sentinel, and demands the same bits everywhere: equal outputs, and the
// sentinel left after each row's npos outputs and in the rows past ep.n.
// It returns the Go loop's rows.
func checkBitDot4(t *testing.T, name string, wb, patch []uint64, w []int8, npos int, ep *blockEpilogue) [][]float32 {
	t.Helper()
	sentinel := math.Float32frombits(0x7fc05a5a)
	stride := npos + 3
	got, want := make([]float32, 4*stride), make([]float32, 4*stride)
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	pw := newPlaneWeights(w)
	bitDot4(got, stride, npos, wb, patch, &pw, ep)
	bitDot4Go(want, stride, npos, wb, patch, &pw, ep)
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: row %d position %d: bitDot4 %v, Go loop %v", name, i/stride, i%stride, v, want[i])
		}
		if written := i/stride < ep.n && i%stride < npos; !written && math.Float32bits(v) != math.Float32bits(sentinel) {
			t.Fatalf("%s: row %d position %d written, past the outputs", name, i/stride, i%stride)
		}
	}
	rows := make([][]float32, ep.n)
	for i := range rows {
		rows[i] = want[i*stride : i*stride+npos]
	}
	return rows
}

// randBitWords returns n words of mixed density: sparse, even and dense.
func randBitWords(rng *rand.Rand, n int) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		switch v := rng.Uint64(); rng.Intn(3) {
		case 0:
			ws[i] = v & rng.Uint64() & rng.Uint64()
		case 1:
			ws[i] = v
		default:
			ws[i] = v | rng.Uint64() | rng.Uint64()
		}
	}
	return ws
}

// TestBitDot4Kernels compares bitDot4, the AVX2 body on a CPU that has
// AVX2, with the Go loop at P = 1, 2, 7 and 8 planes, filters of 1 to 2047
// words, 1 to 40 positions and blocks of 1 to 4 filters, on fields cut
// from codes: the 2-bit levels {0, 42, 85, 127} on their two planes, and
// codes over the whole int8 range on their two's complement. With the
// correction N·Σω each output must be the dot product of the filter's
// ternary weights with the codes. Then the largest counts: 2047 words, the
// longest whole-word filter below maxBitplaneK, of all-ones masks, zero signs
// and all-ones planes, which count 2047·64 on every plane.
func TestBitDot4Kernels(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, set := range []struct {
		codes []int8
		m     PlaneMap
	}{
		{[]int8{0, 127}, Int8PlaneMap([]int8{0, 127})},
		{[]int8{0, 42, 85, 127}, Int8PlaneMap([]int8{0, 42, 85, 127})},
		{allCodes()[128:], Int8PlaneMap(allCodes()[128:])},
		{allCodes(), Int8PlaneMap(allCodes())},
	} {
		pw := set.m.W[:set.m.P]
		var wsum int32
		for _, v := range pw {
			wsum += int32(v)
		}
		for _, filter := range []int{1, 2, 9, 13, 31, 32, 36, 2047} {
			for _, npos := range []int{1, 2, 3, 5, 8, 17, 32, 40} {
				wb := randBitWords(rng, 8*filter)
				codes := drawCodes(rng, set.codes, 64*filter*npos)
				ep := blockEpilogue{n: 1 + (filter+npos)%4, scale: [4]float32{1, 1, 1, 1}}
				dots := make([][]int32, ep.n)
				for i := range ep.n {
					var negs int32
					for j := range 64 * filter {
						negs += int32(wb[8*(j/64)+i] & wb[8*(j/64)+4+i] >> (j % 64) & 1)
					}
					ep.corr[i] = negs * wsum
					dots[i] = make([]int32, npos)
					for pos := range npos {
						for j, x := range codes[pos*64*filter : (pos+1)*64*filter] {
							m, n := int32(wb[8*(j/64)+i]>>(j%64)&1), int32(wb[8*(j/64)+4+i]>>(j%64)&1)
							dots[i][pos] += m * (1 - 2*n) * int32(x)
						}
					}
				}
				name := fmt.Sprintf("P=%d filter=%d npos=%d filters=%d", set.m.P, filter, npos, ep.n)
				rows := checkBitDot4(t, name, wb, planeFields(&set.m, codes, filter, npos), pw, npos, &ep)
				for i, row := range rows {
					for pos, v := range row {
						if v != float32(dots[i][pos]) {
							t.Fatalf("%s filter %d position %d: %v, dot product %d", name, i, pos, v, dots[i][pos])
						}
					}
				}
			}
		}
	}

	filter := (maxBitplaneK - 1) / 64
	wb := make([]uint64, 8*filter)
	for f := range filter {
		for i := range 4 {
			wb[8*f+i] = ^uint64(0)
		}
	}
	for _, pw := range [][]int8{{127, 127}, {-128, -128, -128, -128, -128, -128, -128, -128}, twosComplement[:]} {
		const npos = 3
		patch := make([]uint64, len(pw)*filter*npos)
		for i := range patch {
			patch[i] = ^uint64(0)
		}
		ep := blockEpilogue{n: 4, scale: [4]float32{1, 1, 1, 1}}
		var want int32
		for _, v := range pw {
			want += int32(v) * int32(64*filter)
		}
		for i, row := range checkBitDot4(t, "largest counts", wb, patch, pw, npos, &ep) {
			for pos, v := range row {
				if v != float32(want) {
					t.Fatalf("largest counts on %d planes: filter %d position %d is %v, want %d", len(pw), i, pos, v, want)
				}
			}
		}
	}
}

// BenchmarkBitDot4 times bitDot4 and the Go loop on one output row of 30
// positions, conv0's, at the filter lengths of CNVW2A2's layers (1 word
// for conv0, 9 and 36 for the others) on two and eight planes, per
// popcount: four per plane, filter word and position.
func BenchmarkBitDot4(b *testing.B) {
	const npos = 30
	rng := rand.New(rand.NewSource(79))
	for _, planes := range []int{2, 8} {
		pw := newPlaneWeights(twosComplement[:planes])
		for _, filter := range []int{1, 9, 36} {
			wb := randBitWords(rng, 8*filter)
			patch := randBitWords(rng, planes*filter*npos)
			out := make([]float32, 4*npos)
			ep := blockEpilogue{n: 4, scale: [4]float32{1, 1, 1, 1}}
			for _, k := range []struct {
				name string
				run  func(out []float32, stride, npos int, wb, patch []uint64, pw *planeWeights, ep *blockEpilogue)
			}{{"bitDot4", bitDot4}, {"go", bitDot4Go}} {
				b.Run(fmt.Sprintf("%s/P=%d/filter=%d", k.name, planes, filter), func(b *testing.B) {
					for b.Loop() {
						k.run(out, npos, npos, wb, patch, &pw, &ep)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*planes*filter*npos), "ns/popcount")
				})
			}
		}
	}
}

// BenchmarkConvBitplane times the bit-plane kernel, batch 8, on CNVW2A2's
// conv0 (3→64 channels, 32×32 image codes over the whole int8 range, so
// eight planes, 3×3) and its unpruned conv1 (64→64 channels, 30×30 in,
// 3×3) on the codes its 2-bit activations quantize to, with ternary
// weights on one weight plane and W4 weights on three.
func BenchmarkConvBitplane(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	for _, layer := range []struct {
		name  string
		g     ConvGeom
		codes []int8
	}{
		{"conv0", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, allCodes()},
		{"conv1", ConvGeom{InC: 64, InH: 30, InW: 30, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, []int8{0, 42, 85, 127}},
	} {
		g := layer.g
		k := g.InC * g.KH * g.KW
		xs := make([][]int8, 8)
		dsts := make([]*Tensor, 8)
		scales := make([][]float32, 8)
		for i := range xs {
			xs[i] = drawCodes(rng, layer.codes, g.InC*g.InH*g.InW)
			dsts[i] = New(64, g.OutH()*g.OutW())
			scales[i] = []float32{0.01}
		}
		maps := int8PlaneMaps(xs)
		for _, grid := range []struct {
			name  string
			codes []int8
		}{{"W2", ternaryCodes(rng, 64*k, false)}, {"W4", symmetricCodes(7)(rng, 64*k)}} {
			wb, err := PackBitplaneWeights(&Int8Matrix{Rows: 64, Cols: k, Data: grid.codes}, g)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(layer.name+"/"+grid.name, func(b *testing.B) {
				for b.Loop() {
					if err := ConvBitplaneBatchInto(dsts, wb, xs, maps, g, scales); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
