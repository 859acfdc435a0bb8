package compile

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The compiled dataflow programs reproduce the float fake-quantized
// reference, so the logit comparisons below pin the nn engine to that path;
// the integer fast path is only quantization-tolerance close, not 1e-3
// close. Its own agreement bound is tested in internal/nn.
func TestMain(m *testing.M) {
	nn.SetInt8GEMM(false)
	os.Exit(m.Run())
}

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
	return m, ds
}

// checkStageCodes runs p and m's layers side by side on x and demands
// that every MVTU stage write exactly the activations nn's QuantAct
// writes, bit for bit, so the two agree code for code. A mismatch names
// the stage, the element and both accumulators. It returns the number of
// activations compared and nn's logits.
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
	in := make([]float64, x.Len())
	for i, v := range x.Data() {
		in[i] = float64(v)
	}
	c, h, w := p.InC, p.InH, p.InW
	li, compared := 0, 0
	for _, st := range p.stages {
		for !computes(layers[li].Layer) {
			li++
		}
		accLayer := li
		for li+1 < len(layers) && absorbed(layers[li+1].Layer) {
			li++
		}
		out, oc, oh, ow, err := st.run(in, c, h, w)
		if err != nil {
			t.Fatal(err)
		}
		if st.thresholds != nil {
			want := outs[li].Data()
			if len(want) != len(out) {
				t.Fatalf("stage %s: %d activations, nn has %d", st.name, len(out), len(want))
			}
			for i, v := range out {
				if math.Float64bits(v) != math.Float64bits(float64(want[i])) {
					raw := *st
					raw.thresholds = nil
					acc, _, _, _, _ := raw.run(in, c, h, w)
					t.Fatalf("stage %s activation %d: compile accumulator %v gives %v, nn accumulator %v gives %v",
						st.name, i, float32(acc[i]), v, outs[accLayer].Data()[i], want[i])
				}
			}
			compared += len(out)
		}
		in, c, h, w = out, oc, oh, ow
		li++
	}
	return compared, outs[len(outs)-1]
}

// computes reports whether l lowers to a compile stage of its own.
func computes(l nn.Layer) bool {
	switch l.(type) {
	case *nn.Conv2D, *nn.Dense, *nn.MaxPool2D:
		return true
	}
	return false
}

// absorbed reports whether l folds into the preceding MVTU's ladders.
func absorbed(l nn.Layer) bool {
	switch l.(type) {
	case *nn.ScaleShift, *nn.QuantAct:
		return true
	}
	return false
}

// agreeOn compares program against nn on n dataset samples: every stage's
// activation codes must be identical (checkStageCodes), and so must the
// argmax, with logits within 1e-3.
func agreeOn(t *testing.T, p *Program, m *model.Model, ds *dataset.Dataset, n int) {
	t.Helper()
	compared := 0
	for i := 0; i < n; i++ {
		x, _ := ds.TestSample(i)
		c, want := checkStageCodes(t, p, m, x)
		compared += c
		got, err := p.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("sample %d: logit count %d vs %d", i, got.Len(), want.Len())
		}
		if got.ArgMax() != want.ArgMax() {
			t.Fatalf("sample %d: argmax %d vs %d (logits %v vs %v)",
				i, got.ArgMax(), want.ArgMax(), got.Data(), want.Data())
		}
		for j := range got.Data() {
			if d := math.Abs(float64(got.At(j) - want.At(j))); d > 1e-3 {
				t.Fatalf("sample %d logit %d: %v vs %v", i, j, got.At(j), want.At(j))
			}
		}
	}
	t.Logf("%s: %d activation codes identical to nn", p.Name, compared)
}

// TestCompiledMatchesNNFixed is the core functional-verification property:
// the compiled dataflow (threshold ladders, SWU windows, MVTU loops)
// computes exactly what the layer-by-layer nn engine computes.
func TestCompiledMatchesNNFixed(t *testing.T) {
	for _, wbits := range []int{1, 2} {
		m, ds := trainedTiny(t, wbits, int64(40+wbits))
		p, err := Compile(m, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Flexible {
			t.Fatal("fixed program flagged flexible")
		}
		agreeOn(t, p, m, ds, 30)
	}
}

// TestCompiledMatchesNNFlexiblePruned verifies the paper's Fig. 3
// semantics: a program synthesized to worst-case channels, loaded with a
// pruned model (zero-padded weights + runtime channel guards), computes
// exactly what the pruned model computes.
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
	agreeOn(t, p, pruned, ds, 30)
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
	agreeOn(t, p, m, ds, 10)
	if err := p.LoadModel(pruned); err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, pruned, ds, 10)
	if err := p.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, m, ds, 10)
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
	// Same architecture: allowed. Different worst-case channels: rejected.
	foreign, err := model.Build(model.Config{
		Name: "wide", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{16, 16}, PoolAfter: []int{1}, DenseSizes: []int{32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadModel(foreign); err == nil {
		t.Fatal("foreign worst-case channels accepted")
	}
	if err := p.LoadModel(other); err != nil {
		t.Fatalf("same-architecture model rejected: %v", err)
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
	agreeOn(t, p, m, ds, 25)
}

func TestThresholdsCode(t *testing.T) {
	up := Thresholds{Edges: []float32{0.5, 1.5, 2.5}, Up: true}
	cases := []struct {
		a    float32
		want int
	}{{-1, 0}, {0.5, 1}, {0.6, 1}, {2.0, 2}, {99, 3}}
	for _, c := range cases {
		if got := up.Code(c.a); got != c.want {
			t.Errorf("up Code(%v) = %d, want %d", c.a, got, c.want)
		}
	}
	// Down ladders count the edges at or above the accumulator.
	down := Thresholds{Edges: []float32{-0.5, -1.5, -2.5}, Up: false}
	if down.Code(-3) != 3 || down.Code(-1.5) != 2 || down.Code(0) != 0 {
		t.Fatalf("down ladder wrong: %d %d %d", down.Code(-3), down.Code(-1.5), down.Code(0))
	}
}

// TestNegativeGammaLadder verifies the flipped comparison for negative
// batch-norm gains against the nn reference on a crafted layer.
func TestNegativeGammaLadder(t *testing.T) {
	m, ds := trainedTiny(t, 2, 21)
	// Force a negative gain and a nonzero shift on one channel of the
	// first ScaleShift.
	ss := findFirstScaleShift(t, m)
	ss.Gamma.Value.Set(-1.3, 0)
	ss.Beta.Value.Set(0.7, 0)
	ss.Gamma.Value.Set(0, 1) // and a zero gain on channel 1
	ss.Beta.Value.Set(1.2, 1)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	agreeOn(t, p, m, ds, 20)
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
		tc.param.Value.Set(tc.v, 1)
		for _, flexible := range []bool{false, true} {
			if _, err := Compile(m, flexible); err == nil {
				t.Errorf("%s: Compile(flexible=%v) accepted it", tc.name, flexible)
			}
		}
		tc.param.Value.Set(old, 1)
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
	if !tensor.Equal(a, b) {
		t.Fatal("nondeterministic execution")
	}
}

// Property: random inputs never crash and always yield Classes logits.
func TestRunRandomInputs(t *testing.T) {
	m, _ := trainedTiny(t, 2, 55)
	p, err := Compile(m, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		x := tensor.New(3, 8, 8)
		for j := range x.Data() {
			x.Data()[j] = rng.Float32()*20 - 10
		}
		out, err := p.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 4 {
			t.Fatalf("logits = %d", out.Len())
		}
	}
}

// TestCNVStageCodesMatchNN pins the compiled CNVW2A2 dataflow to nn code
// for code at 0/25/50/85 % pruning, with every ScaleShift channel's γ and
// β randomized: some γ negative, some exactly zero. The unpruned model
// runs as a Fixed program, the pruned ones as Flexible programs padded to
// the worst case.
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
				ss.Gamma.Value.Set(g*ss.Gamma.Value.At(c), c)
				ss.Beta.Value.Set(float32(rng.NormFloat64()), c)
			}
		}
		p, err := Compile(pm, rate > 0)
		if err != nil {
			t.Fatal(err)
		}
		compared := 0
		for i := 0; i < 4; i++ {
			x, _ := ds.TestSample(i)
			c, _ := checkStageCodes(t, p, pm, x)
			compared += c
		}
		t.Logf("p%.0f: %d activation codes identical to nn", rate*100, compared)
	}
}
