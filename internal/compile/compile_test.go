package compile

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
	"repro/internal/train"
)

func trainedTiny(t *testing.T, wbits int, seed int64) (*model.Model, *dataset.Dataset) {
	t.Helper()
	ds := dataset.TinyDataset(seed)
	m, err := model.TinyCNV("tiny", ds.Name, wbits, ds.Classes, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts := train.DefaultOptions()
	opts.Epochs = 2
	opts.Samples = 80
	opts.Seed = seed
	tr, err := train.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(m, ds); err != nil {
		t.Fatal(err)
	}
	// Fit's accuracy loops run ForwardBatch, which caches each
	// ScaleShift's folded ladder under its parameters' versions. The tests
	// edit γ and β in place without BumpVersion, so they get a copy whose
	// caches are cold, as a freshly built model's are.
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c, ds
}

// stagedAct is the output of one QuantAct of a program's network.
type stagedAct struct {
	layer int // the QuantAct's index in the network
	q     *nn.QuantAct
	out   *tensor.Tensor
}

// stagedActs runs each prefix of p's network that ends in a QuantAct
// through ForwardBatch on x and returns the prefixes' outputs in layer
// order. On nn's integer body ForwardBatch runs such a prefix on its
// staged path, ending in the threshold count of the last MVTU, the very
// epilogue Run serves every stage with.
func stagedActs(t *testing.T, p *Program, x *tensor.Tensor) []stagedAct {
	t.Helper()
	var acts []stagedAct
	for k, nl := range p.net.Layers {
		qa, ok := nl.Layer.(*nn.QuantAct)
		if !ok {
			continue
		}
		prefix := &nn.Network{Layers: p.net.Layers[:k+1]}
		outs, err := prefix.ForwardBatch([]*tensor.Tensor{x})
		if err != nil {
			t.Fatal(err)
		}
		acts = append(acts, stagedAct{k, qa, outs[0]})
	}
	return acts
}

// checkStageCodes demands that every QuantAct output of p's network,
// computed by stagedActs, equal what m's layer-by-layer Forward writes
// there, bit for bit, so the two agree code for code. A mismatch names
// the layer and the element. It returns the number of activations
// compared and m's logits.
func checkStageCodes(t *testing.T, p *Program, m *model.Model, x *tensor.Tensor) (int, *tensor.Tensor) {
	t.Helper()
	layers := m.Net.Layers
	outs := make([]*tensor.Tensor, len(layers))
	cur := x
	for i, nl := range layers {
		var err error
		if cur, err = nl.Layer.Forward(cur, false); err != nil {
			t.Fatal(err)
		}
		outs[i] = cur
	}
	compared := 0
	for _, a := range stagedActs(t, p, x) {
		want := outs[a.layer].Data()
		if len(want) != a.out.Len() {
			t.Fatalf("layer %d (%s): %d activations, nn has %d", a.layer, a.q.Name(), a.out.Len(), len(want))
		}
		for i, v := range a.out.Data() {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("layer %d (%s) activation %d: program gives %v, nn gives %v", a.layer, a.q.Name(), i, v, want[i])
			}
		}
		compared += len(want)
	}
	return compared, outs[len(outs)-1]
}

// agreeOn compares program against nn on xs: every stage's activation
// codes must be identical (checkStageCodes), and Run's logits must equal
// both nn's Forward and its ForwardBatch over all of xs, bit for bit.
func agreeOn(t *testing.T, p *Program, m *model.Model, xs []*tensor.Tensor) {
	t.Helper()
	batch, err := m.Net.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for i, x := range xs {
		c, want := checkStageCodes(t, p, m, x)
		compared += c
		got, err := p.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range []struct {
			name string
			y    *tensor.Tensor
		}{{"Forward", want}, {"ForwardBatch", batch[i]}} {
			if !sameBits(got, ref.y) {
				t.Fatalf("sample %d: logits %v, nn %s %v", i, got.Data(), ref.name, ref.y.Data())
			}
		}
	}
	t.Logf("%s: %d activation codes and %d logit vectors identical to nn", p.Name, compared, len(xs))
}

// sameBits reports whether a and b hold the same shape and the same
// float32 bits, counting any two NaNs as equal.
func sameBits(a, b *tensor.Tensor) bool {
	if !slices.Equal(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		w := b.Data()[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
			return false
		}
	}
	return true
}

// testSamples returns the first n test inputs of ds.
func testSamples(ds *dataset.Dataset, n int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i], _ = ds.TestSample(i)
	}
	return xs
}

// floatBody runs the rest of t on nn's float body, restoring the switch
// when t ends.
func floatBody(t *testing.T) {
	prev := nn.SetInt8GEMM(false)
	t.Cleanup(func() { nn.SetInt8GEMM(prev) })
}

// onBothBodies runs f as subtest name/int8 on nn's default integer body
// and again as name/float on its float body.
func onBothBodies(t *testing.T, name string, f func(t *testing.T)) {
	t.Run(name, func(t *testing.T) {
		t.Run("int8", f)
		t.Run("float", func(t *testing.T) {
			floatBody(t)
			f(t)
		})
	})
}

// TestCompiledMatchesNNFixed is the core functional-verification property:
// the compiled dataflow, with ScaleShift and QuantAct folded into each
// MVTU stage's threshold ladders, computes exactly what the layer-by-layer
// nn engine computes, on nn's integer body and on its float body.
func TestCompiledMatchesNNFixed(t *testing.T) {
	for _, wbits := range []int{1, 2} {
		m, ds := trainedTiny(t, wbits, int64(40+wbits))
		onBothBodies(t, fmt.Sprintf("W%d", wbits), func(t *testing.T) {
			p, err := Compile(m, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.Flexible {
				t.Fatal("fixed program flagged flexible")
			}
			agreeOn(t, p, m, testSamples(ds, 30))
		})
	}
}

// TestCompiledMatchesNNFlexiblePruned verifies the paper's Fig. 3
// semantics: a program synthesized to worst-case channels, loaded with a
// pruned model, computes exactly what the pruned model computes.
func TestCompiledMatchesNNFlexiblePruned(t *testing.T) {
	m, ds := trainedTiny(t, 2, 77)
	fold := finn.DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := prune.Shrink(m, 0.5, gs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(pruned, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Flexible {
		t.Fatal("flexible program not flagged")
	}
	if p.WorstChannels[1] != 16 || p.CurChannels[1] != 8 {
		t.Fatalf("channels worst=%v cur=%v", p.WorstChannels, p.CurChannels)
	}
	agreeOn(t, p, pruned, testSamples(ds, 30))
}

// corpusDir holds internal/nn's golden corpus: small models in the
// modelio format, their inputs, and the brute-force oracle's activation
// codes per MVTU stage and logits, on nn's integer and float bodies.
const corpusDir = "../nn/testdata/oracle"

// golden is a corpus entry's <name>.golden.json.
type golden struct {
	Inputs [][]float32 `json:"inputs"`
	Int8   goldenBody  `json:"int8"`
	Float  goldenBody  `json:"float"`
}

// goldenBody holds, per input, each stage's codes ('0'+code per
// activation) and the logits.
type goldenBody struct {
	Codes  [][]string  `json:"codes"`
	Logits [][]float32 `json:"logits"`
}

// TestCompiledMatchesCorpus is the core functional-verification property:
// every corpus model, lowered to a Fixed and to a Flexible program (the
// pruned one sized to its worst-case channels, the paper's Fig. 3
// semantics), with ScaleShift and QuantAct folded into each MVTU stage's
// threshold ladders, computes the oracle's codes at every stage and its
// logits bit for bit, on nn's integer body and on its float body.
func TestCompiledMatchesCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.golden.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden corpus in %s (%v)", corpusDir, err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".golden.json")
		m, g := readCorpusEntry(t, name)
		onBothBodies(t, name, func(t *testing.T) {
			want := g.Float
			if nn.Int8GEMMEnabled() {
				want = g.Int8
			}
			for _, flexible := range []bool{false, true} {
				p, err := Compile(m, flexible)
				if err != nil {
					t.Fatal(err)
				}
				worst := m.ConvChannels()
				if flexible {
					worst = m.BaseChannels
				}
				if p.Flexible != flexible || !slices.Equal(p.WorstChannels, worst) || !slices.Equal(p.CurChannels, m.ConvChannels()) {
					t.Fatalf("flexible=%v: program flexible=%v, channels worst %v cur %v; want worst %v cur %v",
						flexible, p.Flexible, p.WorstChannels, p.CurChannels, worst, m.ConvChannels())
				}
				for j, in := range g.Inputs {
					x := tensor.New(m.InC, m.InH, m.InW)
					copy(x.Data(), in)
					codes := programCodes(t, p, x)
					if !slices.Equal(codes, want.Codes[j]) {
						t.Fatalf("flexible=%v sample %d: stage codes\n%v\ngolden\n%v", flexible, j, codes, want.Codes[j])
					}
					got, err := p.Run(x)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, tensorOf(want.Logits[j])) {
						t.Fatalf("flexible=%v sample %d: logits %v, golden %v", flexible, j, got.Data(), want.Logits[j])
					}
				}
			}
		})
	}
}

// readCorpusEntry decodes the corpus entry name's model and golden file.
func readCorpusEntry(t *testing.T, name string) (*model.Model, *golden) {
	t.Helper()
	f, err := os.Open(filepath.Join(corpusDir, name+".model.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := modelio.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(corpusDir, name+".golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return m, &g
}

// programCodes returns each QuantAct output of p's network on x, as
// stagedActs computes it, as codes of that QuantAct's quantizer.
func programCodes(t *testing.T, p *Program, x *tensor.Tensor) []string {
	t.Helper()
	var codes []string
	for _, a := range stagedActs(t, p, x) {
		b := make([]byte, a.out.Len())
		for i, v := range a.out.Data() {
			b[i] = byte('0' + a.q.Q.Code(v))
		}
		codes = append(codes, string(b))
	}
	return codes
}

// tensorOf wraps v as a rank-1 tensor.
func tensorOf(v []float32) *tensor.Tensor {
	t := tensor.New(len(v))
	copy(t.Data(), v)
	return t
}

// TestFlexibleLoadModelSwitch verifies the fast model switch: one flexible
// program serves the unpruned and the pruned version in turn, each time
// matching the respective nn model.
func TestFlexibleLoadModelSwitch(t *testing.T) {
	m, ds := trainedTiny(t, 2, 91)
	fold := finn.DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := prune.Shrink(m, 0.5, gs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, true)
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, m, testSamples(ds, 10))
	if err := p.LoadModel(pruned); err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, pruned, testSamples(ds, 10))
	if err := p.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, m, testSamples(ds, 10))
}

func TestFixedProgramRejectsLoadModel(t *testing.T) {
	m, _ := trainedTiny(t, 2, 5)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadModel(m); err == nil {
		t.Fatal("fixed program accepted a model switch")
	}
}

func TestLoadModelRejectsForeignModel(t *testing.T) {
	m, _ := trainedTiny(t, 2, 6)
	p, err := Compile(m, true)
	if err != nil {
		t.Fatal(err)
	}
	other, err := model.TinyCNV("other", "tiny-syn", 2, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	tinyTen, err := model.TinyCNV("ten", "tiny-syn", 2, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg model.Config) *model.Model {
		cfg.Dataset, cfg.WBits, cfg.ABits = "tiny-syn", 2, 2
		cfg.PoolAfter, cfg.DenseSizes = []int{1}, []int{32}
		f, err := model.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		name string
		m    *model.Model
	}{
		{"worst-case channels", build(model.Config{Name: "wide", InC: 3, InH: 8, InW: 8, Classes: 4, ConvChannels: []int{16, 16}})},
		{"classes", tinyTen},
		{"input size", build(model.Config{Name: "big", InC: 3, InH: 16, InW: 16, Classes: 4, ConvChannels: []int{8, 16}})},
	} {
		if err := p.LoadModel(tc.m); err == nil {
			t.Errorf("foreign %s accepted", tc.name)
		}
	}
	// Same architecture: allowed, and the program takes the model's name.
	if err := p.LoadModel(other); err != nil {
		t.Fatalf("same-architecture model rejected: %v", err)
	}
	if p.Name != other.Key() {
		t.Fatalf("program name %q after loading %q", p.Name, other.Key())
	}
}

func TestRunValidatesInputShape(t *testing.T) {
	m, _ := trainedTiny(t, 2, 7)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(tensor.New(1, 8, 8)); err == nil {
		t.Fatal("wrong channel count accepted")
	}
	if _, err := p.Run(tensor.New(3, 4, 4)); err == nil {
		t.Fatal("wrong spatial size accepted")
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(nil, false); err == nil {
		t.Fatal("nil model accepted")
	}
	// Float weights with quantized activations still lower fine (the
	// ladders only need the activation quantizer)…
	m, err := model.TinyCNV("floatw", "tiny-syn", 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(m, false); err != nil {
		t.Fatalf("float-weight model rejected: %v", err)
	}
	// …but ReLU activations (no QuantAct to absorb) cannot become
	// threshold ladders and must be rejected.
	relu, err := model.Build(model.Config{
		Name: "relu", Dataset: "tiny-syn", WBits: 2, ABits: 0,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{8, 16}, PoolAfter: []int{1}, DenseSizes: []int{32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(relu, false); err == nil {
		t.Fatal("ReLU model accepted")
	}
}

// TestCompiledMLPMatchesNN: dense-only (TFC-style) models lower and
// execute correctly too.
func TestCompiledMLPMatchesNN(t *testing.T) {
	m, err := model.BuildMLP(model.Config{
		Name: "mlp", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		DenseSizes: []int{32, 16}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.TinyDataset(9)
	opts := train.DefaultOptions()
	opts.Epochs = 2
	opts.Samples = 80
	tr, err := train.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(m, ds); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, m, testSamples(ds, 25))
}

// TestNegativeGammaLadder verifies the flipped comparison for negative
// batch-norm gains against the nn reference on a crafted layer.
func TestNegativeGammaLadder(t *testing.T) {
	m, ds := trainedTiny(t, 2, 21)
	// Force a negative gain and a nonzero shift on one channel of the
	// first ScaleShift.
	ss := findFirstScaleShift(t, m)
	ss.Gamma.Value.Data()[0] = -1.3
	ss.Beta.Value.Data()[0] = 0.7
	ss.Gamma.Value.Data()[1] = 0 // and a zero gain on channel 1
	ss.Beta.Value.Data()[1] = 1.2
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, m, testSamples(ds, 20))
}

// TestCompileRejectsNonFiniteAffine: a NaN or infinite γ or β has no
// threshold ladder (nn would emit NaN or saturate), so Compile errors
// instead of serving a constant code.
func TestCompileRejectsNonFiniteAffine(t *testing.T) {
	m, _ := trainedTiny(t, 2, 21)
	ss := findFirstScaleShift(t, m)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name  string
		param *nn.Param
		v     float32
	}{{"NaN γ", ss.Gamma, nan}, {"+Inf γ", ss.Gamma, inf}, {"-Inf γ", ss.Gamma, -inf},
		{"NaN β", ss.Beta, nan}, {"-Inf β", ss.Beta, -inf}} {
		old := tc.param.Value.At(1)
		tc.param.Value.Data()[1] = tc.v
		for _, flexible := range []bool{false, true} {
			if _, err := Compile(m, flexible); err == nil {
				t.Errorf("%s: Compile(flexible=%v) accepted it", tc.name, flexible)
			}
		}
		tc.param.Value.Data()[1] = old
	}
	if _, err := Compile(m, false); err != nil {
		t.Fatalf("restored model rejected: %v", err)
	}
}

func findFirstScaleShift(t *testing.T, m *model.Model) *nn.ScaleShift {
	t.Helper()
	for _, nl := range m.Net.Layers {
		if ss, ok := nl.Layer.(*nn.ScaleShift); ok {
			return ss
		}
	}
	t.Fatal("no ScaleShift layer found")
	return nil
}

// Property: compiled execution is deterministic.
func TestRunDeterministic(t *testing.T) {
	m, ds := trainedTiny(t, 2, 33)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.TestSample(0)
	a, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Shape(), b.Shape()) || !slices.Equal(a.Data(), b.Data()) {
		t.Fatal("nondeterministic execution")
	}
}

// Property: random inputs never crash and always yield Classes logits; a
// NaN or infinite pixel gives nn's own answer, never a panic. On the
// integer body that is QuantizeSymmetricInt8's error; on the float body
// it is whatever Forward returns.
func TestRunRandomInputs(t *testing.T) {
	m, _ := trainedTiny(t, 2, 55)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	random := func() *tensor.Tensor {
		x := tensor.New(3, 8, 8)
		for j := range x.Data() {
			x.Data()[j] = rng.Float32()*20 - 10
		}
		return x
	}
	for i := 0; i < 20; i++ {
		out, err := p.Run(random())
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 4 {
			t.Fatalf("logits = %d", out.Len())
		}
	}
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range bad {
		x := random()
		x.Data()[rng.Intn(x.Len())] = v
		if _, err := p.Run(x); err == nil || !strings.Contains(err.Error(), "QuantizeSymmetricInt8") {
			t.Errorf("pixel %v on the integer body: err = %v, want QuantizeSymmetricInt8's", v, err)
		}
	}
	floatBody(t)
	for _, v := range bad {
		x := random()
		x.Data()[rng.Intn(x.Len())] = v
		got, gotErr := p.Run(x)
		want, wantErr := m.Net.Forward(x, false)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("pixel %v on the float body: Run err %v, Forward err %v", v, gotErr, wantErr)
		}
		if gotErr == nil && !sameBits(got, want) {
			t.Fatalf("pixel %v on the float body: Run %v, Forward %v", v, got.Data(), want.Data())
		}
	}
	// γ = 0 on every other channel of the first ScaleShift: there an
	// infinite accumulator gives nn NaN (0·∞), and so must the program.
	ss := findFirstScaleShift(t, m)
	for c := 0; c < ss.Gamma.Value.Len(); c += 2 {
		ss.Gamma.Value.Data()[c] = 0
	}
	pz, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad[1:] {
		x := random()
		x.Data()[rng.Intn(x.Len())] = v
		got, err := pz.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("pixel %v on the float body, γ = 0: Run %v, Forward %v", v, got.Data(), want.Data())
		}
	}
}

// TestProgramIsSnapshot: a program keeps the layers it was compiled from,
// so an edit to the model afterwards does not reach it.
func TestProgramIsSnapshot(t *testing.T) {
	m, ds := trainedTiny(t, 2, 61)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.TestSample(0)
	before, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Net.Convs()[0].Weight
	w.Value.Data()[0] += 1
	w.BumpVersion()
	after, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(before, after) {
		t.Fatalf("logits moved with the model: %v → %v", before.Data(), after.Data())
	}
}

// TestCNVStageCodesMatchNN pins the compiled CNVW2A2 dataflow to nn code
// for code, and its logits bit for bit, at 0/25/50/85 % pruning, with
// every ScaleShift channel's γ and β randomized: some γ negative, some
// exactly zero. The unpruned model runs as a Fixed program, the pruned
// ones as Flexible programs sized to the worst case; all of it on nn's
// integer body and again on its float body.
func TestCNVStageCodesMatchNN(t *testing.T) {
	ds := dataset.SyntheticCIFAR10(1)
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	xs := testSamples(ds, 4)
	for _, rate := range []float64{0, 0.25, 0.5, 0.85} {
		pm, _, err := prune.Shrink(m, rate, gran)
		if err != nil {
			t.Fatal(err)
		}
		for _, nl := range pm.Net.Layers {
			ss, ok := nl.Layer.(*nn.ScaleShift)
			if !ok {
				continue
			}
			for c := 0; c < ss.Channels; c++ {
				g := 0.2 + 1.8*rng.Float32()
				switch rng.Intn(8) {
				case 0:
					g = 0
				case 1, 2:
					g = -g
				}
				ss.Gamma.Value.Data()[c] *= g
				ss.Beta.Value.Data()[c] = float32(rng.NormFloat64())
			}
		}
		onBothBodies(t, fmt.Sprintf("p%.0f", rate*100), func(t *testing.T) {
			p, err := Compile(pm, rate > 0)
			if err != nil {
				t.Fatal(err)
			}
			agreeOn(t, p, pm, xs)
		})
	}
}
