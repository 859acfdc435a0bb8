package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// One brute-force oracle for every compute path. oracle runs a network on
// one sample with nothing of nn's compute: no kernel, no weight cache, no
// ladder, no level code. A convolution or dense layer is a direct loop
// over weight and activation codes, after mumax3's bruteConv; the
// surrounding float steps are written as nn's layers define them. Per
// sample Forward and the staged ForwardBatch must both match it bit for
// bit, on the integer body and on the float body, on every draw of the
// generator below. The golden corpus (corpus_test.go) pins the oracle
// itself, so an edit that moves every path together shows too.

// oracleRun is what the oracle computes for one sample.
type oracleRun struct {
	stages [][]float32           // each QuantAct's output, in layer order
	acts   []*quant.ActQuantizer // the quantizer of each stage
	logits []float32             // the network's output
}

// oracle runs net on x. intBody selects the integer body (nn's default)
// or the float body (nn.SetInt8GEMM(false)). It fails where nn must: a
// quantized layer on the integer body refuses a NaN or infinite input.
func oracle(net *nn.Network, x *tensor.Tensor, intBody bool) (*oracleRun, error) {
	run := &oracleRun{}
	vals := append([]float32(nil), x.Data()...)
	var err error
	for _, nl := range net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			rowLen := l.Geom.InC * l.Geom.KH * l.Geom.KW
			if !l.PerChannel {
				rowLen *= l.OutC
			}
			vals, err = mvtu(l.Weight.Value.Data(), paramData(l.Bias), l.Quant, rowLen, l.Geom, l.OutC, vals, intBody)
		case *nn.Dense:
			g := tensor.ConvGeom{InC: l.In, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
			vals, err = mvtu(l.Weight.Value.Data(), paramData(l.Bias), l.Quant, l.Out*l.In, g, l.Out, vals, intBody)
		case *nn.ScaleShift:
			sp := len(vals) / l.Channels
			gd, bd := l.Gamma.Value.Data(), l.Beta.Value.Data()
			for i, v := range vals {
				vals[i] = gd[i/sp]*v + bd[i/sp]
			}
		case *nn.QuantAct:
			for i, v := range vals {
				vals[i] = l.Q.Quantize(v)
			}
			run.stages = append(run.stages, append([]float32(nil), vals...))
			run.acts = append(run.acts, l.Q)
		case *nn.ReLU:
			for i, v := range vals {
				if !(v > 0) {
					vals[i] = 0
				}
			}
		case *nn.MaxPool2D:
			vals = maxPool(l.Geom, vals)
		case *nn.Flatten:
		default:
			return nil, fmt.Errorf("oracle: no reference for %s", nl.Layer.Name())
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", nl.Layer.Name(), err)
		}
	}
	run.logits = vals
	return run, nil
}

// paramData returns p's values, or nil for a layer without the parameter.
func paramData(p *nn.Param) []float32 {
	if p == nil {
		return nil
	}
	return p.Value.Data()
}

// mvtu is the brute-force matrix–vector–threshold unit without its
// threshold: outC filters of geometry g (a dense layer is a 1×1
// convolution over one pixel) over the CHW input x, one weight scale per
// rowLen weights, plus the bias.
//
// On the integer body the weights are their int8 grid codes and x its
// symmetric int8 codes; each output is the exact integer sum of code
// products, rescaled once by weight scale × input scale. On the float body
// the fake-quantized weights (the raw ones for a float layer) meet the
// float inputs, summed in ascending patch order with zero weights skipped,
// as the float GEMM sums them. A padded position is skipped on both: the
// GEMM adds w·0 = ±0 there, which changes no sum that starts at +0.
func mvtu(w, bias []float32, q *quant.WeightQuantizer, rowLen int, g tensor.ConvGeom, outC int, x []float32, intBody bool) ([]float32, error) {
	k := g.InC * g.KH * g.KW
	oh, ow := g.OutH(), g.OutW()
	out := make([]float32, outC*oh*ow)
	intCodes := intBody && q != nil && q.Int8Capable()
	var wc, xc []int8
	var ws []float32
	var sx float32
	eff := w
	var err error
	switch {
	case intCodes:
		wc = make([]int8, len(w))
		if ws, err = q.QuantizeTensorInt8(wc, w, rowLen); err != nil {
			return nil, err
		}
		xc = make([]int8, len(x))
		if sx, err = quant.QuantizeSymmetricInt8(xc, x); err != nil {
			return nil, err
		}
	case q != nil:
		eff = make([]float32, len(w))
		if _, err := q.QuantizeTensor(eff, w, rowLen); err != nil {
			return nil, err
		}
	}
	iacc := make([]int32, oh*ow)
	facc := make([]float32, oh*ow)
	for o := range outC {
		clear(iacc)
		clear(facc)
		// Each output's products arrive in ascending patch order p.
		for c := range g.InC {
			for kh := range g.KH {
				for kw := range g.KW {
					p := o*k + (c*g.KH+kh)*g.KW + kw
					switch {
					case intCodes && wc[p] != 0:
						correlate(iacc, int32(wc[p]), xc, g, c, kh, kw)
					case !intCodes && eff[p] != 0:
						correlate(facc, eff[p], x, g, c, kh, kw)
					}
				}
			}
		}
		for i := range facc {
			v := facc[i]
			if intCodes {
				v = float32(float32(iacc[i]) * (ws[o*k/rowLen] * sx))
			}
			if bias != nil {
				v += bias[o]
			}
			out[o*oh*ow+i] = v
		}
	}
	return out, nil
}

// correlate adds w times the input under patch element (c, kh, kw) of
// every output position to that position's sum in acc.
func correlate[X int8 | float32, A int32 | float32](acc []A, w A, x []X, g tensor.ConvGeom, c, kh, kw int) {
	ow := g.OutW()
	for oy := range g.OutH() {
		iy := oy*g.StrideH - g.PadH + kh
		if iy < 0 || iy >= g.InH {
			continue
		}
		xrow := x[(c*g.InH+iy)*g.InW : (c*g.InH+iy+1)*g.InW]
		arow := acc[oy*ow : (oy+1)*ow]
		for ox := range arow {
			if ix := ox*g.StrideW - g.PadW + kw; ix >= 0 && ix < len(xrow) {
				arow[ox] += w * A(xrow[ix])
			}
		}
	}
}

// maxPool is the window maximum over the in-bounds positions, starting
// from −Inf; a NaN never wins a compare.
func maxPool(g tensor.ConvGeom, x []float32) []float32 {
	oh, ow := g.OutH(), g.OutW()
	out := make([]float32, g.InC*oh*ow)
	for c := range g.InC {
		for oy := range oh {
			for ox := range ow {
				best := float32(math.Inf(-1))
				for ky := range g.KH {
					iy := oy*g.StrideH - g.PadH + ky
					for kx := range g.KW {
						ix := ox*g.StrideW - g.PadW + kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW && x[(c*g.InH+iy)*g.InW+ix] > best {
							best = x[(c*g.InH+iy)*g.InW+ix]
						}
					}
				}
				out[(c*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

// sameFloats reports whether got and want hold the same float32 bits,
// counting any two NaNs as equal, and the index of the first difference.
func sameFloats(got, want []float32) (int, bool) {
	if len(got) != len(want) {
		return min(len(got), len(want)), false
	}
	for i, w := range want {
		g := got[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i, false
		}
	}
	return 0, true
}

// The generator. Every draw is one model of genModels with fresh
// parameters drawn around it, a batch and a worker count, on one body.

// genModel is a model the generator draws from.
type genModel struct {
	name  string
	m     *model.Model
	input func(rng *rand.Rand, j int) *tensor.Tensor
	macs  int // products per sample, the oracle's cost
}

// oracleBudget bounds the products one draw asks of the oracle: the
// generator draws no batch whose samples cost more together, except one
// sample. The unpruned CNVs (about 60 M products per sample) therefore
// draw batches of 1 and 3, CNV at 50 % up to 8.
const oracleBudget = 200_000_000

// macsOf counts the products of one sample through net's convolutions and
// dense layers.
func macsOf(net *nn.Network) int {
	n := 0
	for _, nl := range net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			n += l.OutC * l.Geom.OutH() * l.Geom.OutW() * l.Geom.InC * l.Geom.KH * l.Geom.KW
		case *nn.Dense:
			n += l.Out * l.In
		}
	}
	return n
}

// genModels builds the generator's models once per test binary: CNVW2A2
// and CNVW1A2 pruned at FINN channel granularity to 0/25/50/85 %, TinyCNV
// with binary, ternary and float weights, TinyCNV with ReLU activations,
// and FINN's TFC MLP, whose first Dense takes signed image codes, 784 of
// them, on eight planes.
var genModels = sync.OnceValues(func() ([]genModel, error) {
	cifar, tiny := dataset.SyntheticCIFAR10(1), dataset.TinyDataset(1)
	fromSet := func(ds *dataset.Dataset) func(*rand.Rand, int) *tensor.Tensor {
		return func(rng *rand.Rand, j int) *tensor.Tensor {
			x, _ := ds.TestSample(rng.Intn(40) + j)
			return x
		}
	}
	var out []genModel
	for _, build := range []func(string, int, int64) (*model.Model, error){model.CNVW2A2, model.CNVW1A2} {
		m, err := build("cifar10", 10, 1)
		if err != nil {
			return nil, err
		}
		gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
		if err != nil {
			return nil, err
		}
		for _, rate := range []float64{0, 0.25, 0.5, 0.85} {
			pm, _, err := prune.Shrink(m, rate, gran)
			if err != nil {
				return nil, err
			}
			out = append(out, genModel{name: fmt.Sprintf("%s-p%.0f", m.Name, rate*100), m: pm, input: fromSet(cifar)})
		}
	}
	for _, wbits := range []int{2, 1, 0} {
		m, err := model.TinyCNV(fmt.Sprintf("TinyCNV-W%d", wbits), "tiny", wbits, 4, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, genModel{name: m.Name, m: m, input: fromSet(tiny)})
	}
	relu, err := model.Build(model.Config{Name: "TinyCNV-ReLU", Dataset: "tiny", WBits: 2, InC: 3, InH: 8, InW: 8,
		Classes: 4, ConvChannels: []int{8, 16}, PoolAfter: []int{1}, DenseSizes: []int{32}, Seed: 1})
	if err != nil {
		return nil, err
	}
	out = append(out, genModel{name: relu.Name, m: relu, input: fromSet(tiny)})
	tfc, err := model.TFC("mnist", 10, 1)
	if err != nil {
		return nil, err
	}
	out = append(out, genModel{name: "TFC", m: tfc, input: func(rng *rand.Rand, _ int) *tensor.Tensor {
		x := tensor.New(1, 28, 28)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		return x
	}})
	for i := range out {
		out[i].macs = macsOf(out[i].m.Net)
	}
	return out, nil
})

// fallbacks are the stage fallbacks a draw may carry: inputs, affines and
// biases that the staged path leaves to the per-layer path, or that every
// path must refuse or carry through as NaN.
var fallbacks = []string{"NaN pixel", "+Inf pixel", "-Inf pixel", "NaN γ", "+Inf γ", "-Inf β", "NaN β",
	"γ overflows", "NaN bias", "+Inf bias", "γ = 0, +Inf pixel"}

// draw is one generated case.
type draw struct {
	name     string
	net      *nn.Network
	xs       []*tensor.Tensor
	workers  int
	intBody  bool
	fallback string // "" for none
	staged   bool   // every quantized layer after the first reads levels
}

// drawCase draws a case from gm on the given body: a copy of its network
// whose ScaleShift γ (an eighth of the channels zero, a quarter negative)
// and β are drawn around the activations reaching them, per-channel or
// tensor-wide weight scales, random biases on the quantized layers or
// none, a batch of 1, 3, 8 or 17 within budget products (see
// oracleBudget) and a worker cap of 1, 2 or NumCPU; and one stage
// fallback in about a third of the draws.
func drawCase(t testing.TB, rng *rand.Rand, gm genModel, intBody bool, budget int) *draw {
	t.Helper()
	net, err := nn.CloneNetwork(gm.m.Net)
	if err != nil {
		t.Fatal(err)
	}
	d := &draw{net: net, intBody: intBody}
	sizes := []int{1}
	for _, b := range []int{3, 8, 17} {
		if b*gm.macs <= budget {
			sizes = append(sizes, b)
		}
	}
	bsz := sizes[rng.Intn(len(sizes))]
	d.workers = []int{1, 2, runtime.NumCPU()}[rng.Intn(3)]
	d.xs = make([]*tensor.Tensor, bsz)
	for j := range d.xs {
		d.xs[j] = gm.input(rng, j)
	}
	perChannel, biased := rng.Intn(2) == 0, rng.Intn(2) == 0
	for _, nl := range net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			l.PerChannel = perChannel
			if biased && l.Quant != nil {
				nn.SetBias(l, randoms(rng, l.OutC, 0.3))
			}
		case *nn.Dense:
			if biased && l.Quant != nil {
				nn.SetBias(l, randoms(rng, l.Out, 0.3))
			}
		}
	}
	randomAffines(t, net, d.xs[:1], rng)
	if rng.Intn(3) == 0 {
		d.fallback = fallbacks[rng.Intn(len(fallbacks))]
		applyFallback(net, d.xs, d.fallback, rng)
	}
	d.staged = intBody && d.fallback == "" && allStaged(net)
	d.name = fmt.Sprintf("%s/B=%d/workers=%d/perchannel=%v/bias=%v", gm.name, bsz, d.workers, perChannel, biased)
	if d.fallback != "" {
		d.name += "/" + d.fallback
	}
	return d
}

// randoms returns n normal draws times scale.
func randoms(rng *rand.Rand, n int, scale float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * scale)
	}
	return v
}

// randomAffines gives every ScaleShift of net random γ and β scaled to
// the activations reaching it on xs: γ is zero for an eighth of the
// channels and negative for a quarter, and about half the layers reach
// their top levels only now and then.
func randomAffines(t testing.TB, net *nn.Network, xs []*tensor.Tensor, rng *rand.Rand) {
	t.Helper()
	cur := append([]*tensor.Tensor(nil), xs...)
	for _, nl := range net.Layers {
		if ss, ok := nl.Layer.(*nn.ScaleShift); ok {
			var sum, sq float64
			n := 0
			for _, x := range cur {
				for _, v := range x.Data() {
					sum += float64(v)
					sq += float64(v) * float64(v)
					n++
				}
			}
			mean := sum / float64(n)
			std := math.Sqrt(max(sq/float64(n)-mean*mean, 1e-12))
			// A narrow spread below the middle of the ladder keeps the
			// top levels out of most samples, so their code tables scale
			// to a lower maxAbs.
			spread, center := 1.0, 1.0
			if rng.Intn(2) == 0 {
				spread, center = 0.3, 0.5
			}
			gd, bd := ss.Gamma.Value.Data(), ss.Beta.Value.Data()
			for c := range gd {
				g := (0.5 + rng.Float64()) * spread / std
				switch r := rng.Intn(8); {
				case r == 0:
					g = 0
				case r <= 2:
					g = -g
				}
				gd[c] = float32(g)
				bd[c] = float32(center - g*mean + rng.NormFloat64()*spread)
			}
			ss.Gamma.BumpVersion()
			ss.Beta.BumpVersion()
		}
		for j, x := range cur {
			out, err := nl.Layer.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			cur[j] = out
		}
	}
}

// applyFallback edits net or xs for one of the fallbacks.
func applyFallback(net *nn.Network, xs []*tensor.Tensor, kind string, rng *rand.Rand) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	pixel := func(v float32) {
		x := xs[rng.Intn(len(xs))]
		x.Data()[rng.Intn(x.Len())] = v
	}
	var affines []*nn.ScaleShift
	var quantized []nn.Layer
	for _, nl := range net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.ScaleShift:
			affines = append(affines, l)
		case *nn.Conv2D:
			if l.Quant != nil {
				quantized = append(quantized, l)
			}
		case *nn.Dense:
			if l.Quant != nil {
				quantized = append(quantized, l)
			}
		}
	}
	affine := func() *nn.ScaleShift { return affines[rng.Intn(len(affines))] }
	set := func(p *nn.Param, v float32) {
		p.Value.Data()[rng.Intn(p.Value.Len())] = v
		p.BumpVersion()
	}
	bias := func(v float32) {
		if len(quantized) == 0 {
			pixel(v)
			return
		}
		l := quantized[rng.Intn(len(quantized))]
		var b []float32
		switch l := l.(type) {
		case *nn.Conv2D:
			b = make([]float32, l.OutC)
			copy(b, paramData(l.Bias))
		case *nn.Dense:
			b = make([]float32, l.Out)
			copy(b, paramData(l.Bias))
		}
		b[rng.Intn(len(b))] = v
		nn.SetBias(l, b)
	}
	switch kind {
	case "NaN pixel":
		pixel(nan)
	case "+Inf pixel":
		pixel(inf)
	case "-Inf pixel":
		pixel(-inf)
	case "NaN γ":
		set(affine().Gamma, nan)
	case "+Inf γ":
		set(affine().Gamma, inf)
	case "-Inf β":
		set(affine().Beta, -inf)
	case "NaN β":
		set(affine().Beta, nan)
	case "γ overflows":
		set(affine().Gamma, 3e38)
		set(affine().Gamma, -3e38)
	case "NaN bias":
		bias(nan)
	case "+Inf bias":
		bias(inf)
	case "γ = 0, +Inf pixel":
		// The float body's 0·∞: an infinite accumulator meets γ = 0 on
		// every other channel of the first ScaleShift and gives NaN.
		ss := affines[0]
		for c := 0; c < ss.Channels; c += 2 {
			ss.Gamma.Value.Data()[c] = 0
		}
		ss.Gamma.BumpVersion()
		pixel(inf)
	}
}

// allStaged reports whether every quantized layer of net after the first
// is staged: each follows a 2-bit QuantAct.
func allStaged(net *nn.Network) bool {
	first, act := true, false
	for _, nl := range net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D, *nn.Dense:
			if quantizerOf(l) == nil {
				continue
			}
			if !first && !act {
				return false
			}
			first, act = false, false
		case *nn.QuantAct:
			act = l.Q.Bits == 2
		case *nn.ReLU:
			return false
		}
	}
	return !first
}

// quantizerOf returns the weight quantizer of a Conv2D or Dense.
func quantizerOf(l nn.Layer) *quant.WeightQuantizer {
	switch l := l.(type) {
	case *nn.Conv2D:
		return l.Quant
	case *nn.Dense:
		return l.Quant
	}
	return nil
}

// checkDraw runs d through per-sample Forward and ForwardBatch at its
// worker cap and body and demands the oracle's outputs bit for bit, or an
// error where the oracle fails (for ForwardBatch, the per-layer loop's
// error text). A staged draw must also serve every quantized layer on the
// integer body, the first from floats and every later one from levels.
func checkDraw(t *testing.T, d *draw) {
	t.Helper()
	prevBody := nn.SetInt8GEMM(d.intBody)
	prevW := tensor.SetMaxWorkers(d.workers)
	prevGrain := tensor.SetParallelGrain(1)
	defer func() {
		nn.SetInt8GEMM(prevBody)
		tensor.SetMaxWorkers(prevW)
		tensor.SetParallelGrain(prevGrain)
	}()
	want := make([]*oracleRun, len(d.xs))
	var wantErr error
	for j, x := range d.xs {
		run, err := oracle(d.net, x, d.intBody)
		if err != nil {
			wantErr = err
		}
		want[j] = run
	}
	before := pathCounts(d.net)
	got, err := d.net.ForwardBatch(d.xs)
	after := pathCounts(d.net)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ForwardBatch error %v, oracle %v", err, wantErr)
	}
	if err != nil {
		// A staged batch fails as the per-layer loop does, word for word.
		if _, lerr := nn.LayerByLayerBatch(d.net, d.xs); lerr == nil || lerr.Error() != err.Error() {
			t.Fatalf("ForwardBatch error %q, per-layer loop %v", err, lerr)
		}
	}
	for j, x := range d.xs {
		single, err := d.net.Forward(x, false)
		if (err == nil) != (want[j] != nil) {
			t.Fatalf("sample %d: Forward error %v, oracle fails: %v", j, err, want[j] == nil)
		}
		if err != nil {
			continue
		}
		if i, ok := sameFloats(single.Data(), want[j].logits); !ok {
			t.Fatalf("sample %d: Forward logit %d is %v, oracle %v", j, i, single.Data(), want[j].logits)
		}
		if got == nil {
			continue
		}
		if !slices.Equal(got[j].Shape(), single.Shape()) {
			t.Fatalf("sample %d: ForwardBatch shape %v, Forward %v", j, got[j].Shape(), single.Shape())
		}
		if i, ok := sameFloats(got[j].Data(), want[j].logits); !ok {
			t.Fatalf("sample %d: ForwardBatch logit %d is %v, oracle %v", j, i, got[j].Data(), want[j].logits)
		}
	}
	if d.staged {
		checkStagedCounts(t, before, after, len(d.xs))
	}
}

// pathCounts returns every quantized layer's path counters: samples on
// the integer body, and from levels.
func pathCounts(net *nn.Network) [][2]int {
	var pcs [][2]int
	for _, nl := range net.Layers {
		if quantizerOf(nl.Layer) != nil {
			ints, levels := nn.PathCounts(nl.Layer)
			pcs = append(pcs, [2]int{ints, levels})
		}
	}
	return pcs
}

// checkStagedCounts demands that one ForwardBatch of bsz samples served
// every quantized layer on the integer body, the first from floats and
// every later one from levels.
func checkStagedCounts(t *testing.T, before, after [][2]int, bsz int) {
	t.Helper()
	for i, a := range after {
		d := [2]int{a[0] - before[i][0], a[1] - before[i][1]}
		want := [2]int{bsz, bsz}
		if i == 0 {
			want = [2]int{bsz, 0}
		}
		if d != want {
			t.Errorf("quantized layer %d: %d int8 samples, %d from levels; want %v", i, d[0], d[1], want)
		}
	}
}

// TestForwardMatchesOracle draws cases from every generator model on both
// bodies and checks each against the oracle. Across the draws every batch
// size and worker count must come up on each body, and every fallback at
// least once.
func TestForwardMatchesOracle(t *testing.T) {
	models, err := genModels()
	if err != nil {
		t.Fatal(err)
	}
	budget := oracleBudget
	if testing.Short() {
		budget /= 10
	}
	rng := rand.New(rand.NewSource(10))
	seen := map[string]bool{}
	for _, gm := range models {
		for _, intBody := range []bool{true, false} {
			reps := 3
			if gm.macs > oracleBudget/20 { // CNV at 0/25/50 %
				reps = 1
			}
			for range reps {
				d := drawCase(t, rng, gm, intBody, budget)
				body := map[bool]string{true: "int8", false: "float"}[intBody]
				seen[fmt.Sprintf("%s B=%d", body, len(d.xs))] = true
				seen[fmt.Sprintf("%s workers=%d", body, d.workers)] = true
				seen[d.fallback] = true
				t.Run(body+"/"+d.name, func(t *testing.T) { checkDraw(t, d) })
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, body := range []string{"int8", "float"} {
		for _, b := range []int{1, 3, 8, 17} {
			if !seen[fmt.Sprintf("%s B=%d", body, b)] {
				t.Errorf("no %s draw at B=%d", body, b)
			}
		}
		for _, w := range []int{1, 2, runtime.NumCPU()} {
			if !seen[fmt.Sprintf("%s workers=%d", body, w)] {
				t.Errorf("no %s draw at %d workers", body, w)
			}
		}
	}
	for _, f := range fallbacks {
		if !seen[f] {
			t.Errorf("no draw with fallback %q", f)
		}
	}
}

// FuzzStagedForward draws a case through the generator from one of its
// small models, TinyCNV and TFC, with fuzzed γ and β (raw float32 bits
// for one channel of each ScaleShift) and fuzzed input bits, and checks it
// against the oracle on both bodies.
func FuzzStagedForward(f *testing.F) {
	f.Add(int64(1), uint32(0x3f800000), uint32(0), []byte{0x3f, 0, 0, 0})
	f.Add(int64(2), uint32(0xbfc00000), uint32(0x3f000000), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(3), uint32(0), uint32(0x7fc00000), []byte{0x3e, 0x80, 0, 0})
	f.Add(int64(4), uint32(0x7f7fffff), uint32(0xff800000), []byte{0x7f, 0x80, 0, 0})
	f.Add(int64(5), uint32(0x80000000), uint32(0x80000000), []byte{0xff, 0xc0, 0, 1})
	models, err := genModels()
	if err != nil {
		f.Fatal(err)
	}
	var small []genModel
	for _, gm := range models {
		if gm.m.InH < 32 {
			small = append(small, gm)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, gammaBits, betaBits uint32, pix []byte) {
		for _, intBody := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			d := drawCase(t, rng, small[uint64(seed)%uint64(len(small))], intBody, oracleBudget)
			for _, nl := range d.net.Layers {
				if ss, ok := nl.Layer.(*nn.ScaleShift); ok {
					c := rng.Intn(ss.Channels)
					ss.Gamma.Value.Data()[c] = math.Float32frombits(gammaBits)
					ss.Beta.Value.Data()[c] = math.Float32frombits(betaBits)
					ss.Gamma.BumpVersion()
					ss.Beta.BumpVersion()
				}
			}
			for i := 0; i+4 <= len(pix) && i/4 < len(d.xs)*d.xs[0].Len(); i += 4 {
				b := uint32(pix[i])<<24 | uint32(pix[i+1])<<16 | uint32(pix[i+2])<<8 | uint32(pix[i+3])
				x := d.xs[(i/4)%len(d.xs)]
				x.Data()[(i/4/len(d.xs))%x.Len()] = math.Float32frombits(b)
			}
			d.staged = false // fuzzed bits may leave the levels
			checkDraw(t, d)
		}
	})
}
