package tensor

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// FuzzConvBitplane is a differential target for the bit-plane convolution
// and its decomposition rule. shape picks the geometry and filter count,
// codes the activation codes (mode 0: drawn from {0, c1, c2, c1+c2} for
// c1, c2 taken from codes; mode 1: the raw bytes, any int8 code), and
// wseed the weights (binary, ternary, ternary with one code from the whole
// int8 range, or every code from it). Every sample must take two planes or
// fewer exactly when a brute-force search over every pair c1 < c2
// decomposes its codes, and otherwise eight planes exactly when it holds a
// negative code. The weights must take weightPlanes' count of weight
// planes, and the kernel's outputs must equal the six-loop reference
// exactly, with the codes as symbols and again with them recoded as table
// symbols (NewPlaneMap).
func FuzzConvBitplane(f *testing.F) {
	f.Add(uint64(0), []byte{42, 85, 0, 1, 2, 3}, int64(1), uint8(0))
	f.Add(uint64(63), []byte{64, 63, 9, 8, 7}, int64(2), uint8(0))
	f.Add(uint64(1<<20|64), []byte{0, 127, 42, 85}, int64(3), uint8(1))
	f.Add(uint64(1<<30|299), []byte{40, 85, 125}, int64(4), uint8(1))
	f.Add(uint64(7<<40|65), []byte{200, 1}, int64(5), uint8(1))
	f.Add(uint64(2|3<<9|5<<12|2<<15|2<<17), []byte{0x80, 0x7f, 0xff, 1, 0, 0x81}, int64(7), uint8(1))
	f.Fuzz(func(t *testing.T, shape uint64, codes []byte, wseed int64, mode uint8) {
		if len(codes) == 0 {
			t.Skip()
		}
		field := func(bits uint) int {
			v := int(shape & (1<<bits - 1))
			shape >>= bits
			return v
		}
		g := ConvGeom{InC: 1 + field(9)%300, InH: 1 + field(3), InW: 1 + field(3),
			KH: 1 + field(2)%3, KW: 1 + field(2)%3, StrideH: 1 + field(1), StrideW: 1 + field(1),
			PadH: field(1), PadW: field(1)}
		if g.Validate() != nil {
			t.Skip()
		}
		outC := 1 + field(4)
		bsz := 1 + field(2)
		rng := rand.New(rand.NewSource(wseed))
		k := g.InC * g.KH * g.KW
		w := &Int8Matrix{Rows: outC, Cols: k, Data: ternaryCodes(rng, outC*k, wseed%4 == 0)}
		switch wseed % 4 {
		case 2:
			w.Data[rng.Intn(len(w.Data))] = int8(rng.Intn(256) - 128)
		case 3:
			w.Data = randInt8s(rng, outC*k)
		}
		n := g.InC * g.InH * g.InW
		xs := make([][]int8, bsz)
		for b := range xs {
			xs[b] = make([]int8, n)
			for i := range xs[b] {
				c := codes[(b*n+i)%len(codes)]
				if mode%2 == 0 {
					c1, c2 := codes[0]&63, codes[len(codes)/2]&63
					c = []byte{0, c1, c2, c1 + c2}[c&3]
				}
				xs[b][i] = int8(c)
			}
		}
		maps := int8PlaneMaps(xs)
		for b, x := range xs {
			want := 7
			if bruteDecomposes(x) {
				want = 2
			} else if slices.Min(x) < 0 {
				want = 8
			}
			if p := maps[b].P; p > 2 || want > 2 {
				if p != want {
					t.Fatalf("%+v sample %d: %d planes, want %d", g, b, p, want)
				}
			}
		}
		wb, err := PackBitplaneWeights(w, g)
		if err != nil {
			t.Fatal(err)
		}
		if want := weightPlanes(w.Data); wb.wplanes != want {
			t.Fatalf("%d weight planes, want %d", wb.wplanes, want)
		}
		scales := make([][]float32, bsz)
		for b := range scales {
			scales[b] = []float32{0.25 + float32(b)}
		}
		check := func(route string, dsts []*Tensor) {
			for b, x := range xs {
				want := naiveConvInt8(w.Data, x, g, outC, scales[b])
				for i, v := range dsts[b].Data() {
					if v != want[i] {
						t.Fatalf("%+v outC=%d %s sample %d: out[%d] = %v, naive %v", g, outC, route, b, i, v, want[i])
					}
				}
			}
		}
		dsts := nanOutputs(bsz, outC, g.OutH()*g.OutW())
		if err := ConvBitplaneBatchInto(dsts, wb, xs, maps, g, scales); err != nil {
			t.Fatal(err)
		}
		check("int8 codes", dsts)
		syms := make([][]uint8, bsz)
		for b, x := range xs {
			var table []int8
			syms[b], table = tableSymbols(x)
			maps[b] = NewPlaneMap(table)
		}
		dsts = nanOutputs(bsz, outC, g.OutH()*g.OutW())
		if err := ConvBitplaneBatchInto(dsts, wb, syms, maps, g, scales); err != nil {
			t.Fatal(err)
		}
		check("table symbols", dsts)
	})
}

// bruteDecomposes reports whether some pair 0 < c1 < c2 puts every code of
// x in {0, c1, c2, c1+c2}, by trying every pair with c1 a code (≤ 127) and
// c2 up to 254 (a c2 above 127 stands for an unused plane).
func bruteDecomposes(x []int8) bool {
	var distinct []int8
	for _, v := range x {
		if v != 0 && !slices.Contains(distinct, v) {
			if len(distinct) == 3 {
				return false
			}
			distinct = append(distinct, v)
		}
	}
	for c1 := 1; c1 <= 127; c1++ {
		for c2 := c1 + 1; c2 <= 254; c2++ {
			ok := true
			for _, v := range distinct {
				ok = ok && (int(v) == c1 || int(v) == c2 || int(v) == c1+c2)
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// FuzzBitDot4 compares bitDot4 with the Go loop on arbitrary words,
// plane weights and epilogues: word i of the weight block and the fields
// is the 8 bytes of data at i·8 (mod its length) rotated left by i bits,
// so a short input still gives distinct words; shape picks the filter
// length (1–1024 words) and the positions (1–32), planes the plane count
// (1–8), and wseed the plane weights (any int8), the corrections, the
// scales and the filters of the block (1–4).
func FuzzBitDot4(f *testing.F) {
	f.Add([]byte{0xff, 0, 0x0f, 0xf0, 1, 2, 3, 4}, uint16(0), uint8(1), int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(35|31<<10), uint8(7), int64(1))
	f.Add([]byte("bit-plane words, eight bytes each"), uint16(8|5<<10), uint8(6), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16, planes uint8, wseed int64) {
		if len(data) < 8 {
			t.Skip()
		}
		filter := 1 + int(shape&0x3ff)
		npos := 1 + int(shape>>10)%32
		p := 1 + int(planes%8)
		rng := rand.New(rand.NewSource(wseed))
		pw := make([]int8, p)
		for b := range pw {
			pw[b] = int8(rng.Uint32())
		}
		ep := blockEpilogue{n: 1 + rng.Intn(4)}
		for i := range ep.corr {
			ep.corr[i] = int32(rng.Intn(1<<20) - 1<<19)
			ep.scale[i] = float32(rng.NormFloat64())
		}
		words := make([]uint64, 8*filter+p*filter*npos)
		for i := range words {
			o := i * 8 % (len(data) - 7)
			words[i] = bits.RotateLeft64(binary.LittleEndian.Uint64(data[o:]), i)
		}
		checkBitDot4(t, "fuzz", words[:8*filter], words[8*filter:], pw, npos, &ep)
	})
}

// FuzzLadder4 compares the two bodies of the threshold count on arbitrary
// rows: every 4 bytes of data are one float32 (NaN, ±Inf, ±0 and
// subnormals included), and the bias, sign and thresholds are arbitrary
// floats.
func FuzzLadder4(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xbf, 0, 0, 0x80, 0x7f}, float32(0), float32(1), float32(-0.5), float32(0), float32(0.5), float32(1))
	f.Add(make([]byte, 4*37), float32(0.25), float32(-1), float32(0), float32(0), float32(0.25), float32(0.25))
	f.Add([]byte("thirty-two bytes make eight floats, and a tail"), float32(-3), float32(-1), float32(1e30), float32(-1e30), float32(0), float32(1e-40))
	f.Fuzz(func(t *testing.T, data []byte, bias, sign, t0, t1, t2, t3 float32) {
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkLadder4(t, "fuzz", src, bias, sign, [4]float32{t0, t1, t2, t3})
	})
}
