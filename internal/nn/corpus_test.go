package nn_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/modelio"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// The oracle's golden corpus, after mgpusim's conv_forward_test_data gold
// sets: a few small models in the modelio format, their inputs, and the
// oracle's per-stage activation codes and logits on both bodies, in
// testdata/oracle. The oracle and every nn path must reproduce them, and
// internal/compile's programs read them too. A change that moves every
// path together, such as an edit to a shared quant expression, fails here
// and nowhere else in this tier. The float results are those of a build
// that rounds x·y and +z separately, as the gc compiler does for amd64
// and 386; where it fuses multiply-add, as for arm64, the bits may
// differ. After an intended change, rewrite them with:
//
//	go test ./internal/nn/ -run TestOracleCorpus -update

var update = flag.Bool("update", false, "rewrite the oracle's golden corpus in testdata/oracle")

const corpusDir = "testdata/oracle"

// goldenBody is what one body computes for every input of a corpus entry:
// per sample, each QuantAct's output as codes (one character '0'+code
// per activation, a string per stage), and the logits.
type goldenBody struct {
	Codes  [][]string  `json:"codes"`
	Logits [][]float32 `json:"logits"`
}

// golden is one corpus entry's <name>.golden.json; its model is
// <name>.model.json.
type golden struct {
	Inputs [][]float32 `json:"inputs"`
	Int8   goldenBody  `json:"int8"`
	Float  goldenBody  `json:"float"`
}

// corpusModels builds the corpus's models, each with parameters drawn as
// the generator draws them: TinyCNV with ternary weights (per-channel
// scales and biases), with binary weights, and pruned to 50 % for a
// flexible program; and a small MLP whose first Dense takes image codes.
func corpusModels(t *testing.T) map[string]*model.Model {
	t.Helper()
	tiny := func(name string, wbits int) *model.Model {
		m, err := model.TinyCNV(name, "tiny-syn", wbits, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	w2, w1 := tiny("tinycnv-w2", 2), tiny("tinycnv-w1", 1)
	rng := rand.New(rand.NewSource(7))
	for _, nl := range w2.Net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			l.PerChannel = true
			nn.SetBias(l, randoms(rng, l.OutC, 0.3))
		case *nn.Dense:
			if l.Quant != nil {
				nn.SetBias(l, randoms(rng, l.Out, 0.3))
			}
		}
	}
	gran, err := finn.DefaultFolding(w2).ChannelGranularity(w2)
	if err != nil {
		t.Fatal(err)
	}
	p50, _, err := prune.Shrink(tiny("tinycnv-w2-p50", 2), 0.5, gran)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := model.BuildMLP(model.Config{Name: "mlp", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4, DenseSizes: []int{32, 16}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	xs := corpusInputs()
	for _, m := range []*model.Model{w2, w1, p50, mlp} {
		randomAffines(t, m.Net, xs, rng)
	}
	return map[string]*model.Model{"tinycnv-w2": w2, "tinycnv-w1": w1, "tinycnv-w2-p50": p50, "mlp": mlp}
}

// corpusInputs are the corpus's four inputs, test samples of the tiny
// dataset.
func corpusInputs() []*tensor.Tensor {
	ds := dataset.TinyDataset(5)
	xs := make([]*tensor.Tensor, 4)
	for j := range xs {
		xs[j], _ = ds.TestSample(j)
	}
	return xs
}

// stageCodes renders the oracle's stages as codes.
func stageCodes(run *oracleRun) []string {
	codes := make([]string, len(run.stages))
	for i, st := range run.stages {
		b := make([]byte, len(st))
		for k, v := range st {
			b[k] = byte('0' + run.acts[i].Code(v))
		}
		codes[i] = string(b)
	}
	return codes
}

// oracleBody runs the oracle over xs on one body.
func oracleBody(t *testing.T, net *nn.Network, xs []*tensor.Tensor, intBody bool) goldenBody {
	t.Helper()
	var b goldenBody
	for _, x := range xs {
		run, err := oracle(net, x, intBody)
		if err != nil {
			t.Fatal(err)
		}
		b.Codes = append(b.Codes, stageCodes(run))
		b.Logits = append(b.Logits, run.logits)
	}
	return b
}

// writeCorpus rewrites testdata/oracle from the oracle.
func writeCorpus(t *testing.T) {
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	xs := corpusInputs()
	for name, m := range corpusModels(t) {
		var mb bytes.Buffer
		if err := modelio.Encode(&mb, m); err != nil {
			t.Fatal(err)
		}
		g := golden{Int8: oracleBody(t, m.Net, xs, true), Float: oracleBody(t, m.Net, xs, false)}
		for _, x := range xs {
			g.Inputs = append(g.Inputs, x.Data())
		}
		gb, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, name+".model.json"), mb.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, name+".golden.json"), append(gb, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readCorpus returns every corpus entry's model and golden file, by name.
func readCorpus(t *testing.T) (map[string]*model.Model, map[string]*golden) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.golden.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden corpus in %s (%v)", corpusDir, err)
	}
	ms, gs := map[string]*model.Model{}, map[string]*golden{}
	for _, p := range paths {
		name := filepath.Base(p[:len(p)-len(".golden.json")])
		f, err := os.Open(filepath.Join(corpusDir, name+".model.json"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := modelio.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var g golden
		if err := json.Unmarshal(b, &g); err != nil {
			t.Fatal(err)
		}
		ms[name], gs[name] = m, &g
	}
	return ms, gs
}

// TestOracleCorpus holds the oracle, per-sample Forward (its logits and,
// layer by layer, every QuantAct's codes) and ForwardBatch over the whole
// input set to the golden corpus, on both bodies.
func TestOracleCorpus(t *testing.T) {
	if *update {
		writeCorpus(t)
	}
	ms, gs := readCorpus(t)
	for name, m := range ms {
		g := gs[name]
		xs := make([]*tensor.Tensor, len(g.Inputs))
		for j, in := range g.Inputs {
			xs[j] = tensor.New(m.InC, m.InH, m.InW)
			copy(xs[j].Data(), in)
		}
		for _, intBody := range []bool{true, false} {
			want := g.Int8
			if !intBody {
				want = g.Float
			}
			t.Run(fmt.Sprintf("%s/int8=%v", name, intBody), func(t *testing.T) {
				prev := nn.SetInt8GEMM(intBody)
				defer nn.SetInt8GEMM(prev)
				checkGolden(t, "oracle", oracleBody(t, m.Net, xs, intBody), want)
				var fwd goldenBody
				for _, x := range xs {
					codes, logits := forwardStages(t, m.Net, x)
					fwd.Codes = append(fwd.Codes, codes)
					fwd.Logits = append(fwd.Logits, logits)
				}
				checkGolden(t, "Forward", fwd, want)
				outs, err := m.Net.ForwardBatch(xs)
				if err != nil {
					t.Fatal(err)
				}
				for j, out := range outs {
					if i, ok := sameFloats(out.Data(), want.Logits[j]); !ok {
						t.Fatalf("ForwardBatch sample %d logit %d: %v, golden %v", j, i, out.Data(), want.Logits[j])
					}
				}
			})
		}
	}
}

// forwardStages runs net layer by layer with Forward, returning each
// QuantAct's output as codes and the logits.
func forwardStages(t *testing.T, net *nn.Network, x *tensor.Tensor) ([]string, []float32) {
	t.Helper()
	run := &oracleRun{}
	cur := x
	for _, nl := range net.Layers {
		var err error
		if cur, err = nl.Layer.Forward(cur, false); err != nil {
			t.Fatal(err)
		}
		if qa, ok := nl.Layer.(*nn.QuantAct); ok {
			run.stages = append(run.stages, cur.Data())
			run.acts = append(run.acts, qa.Q)
		}
	}
	return stageCodes(run), cur.Data()
}

// checkGolden demands got's codes and logits equal want's, bit for bit.
func checkGolden(t *testing.T, who string, got, want goldenBody) {
	t.Helper()
	if len(got.Logits) != len(want.Logits) {
		t.Fatalf("%s: %d samples, golden %d", who, len(got.Logits), len(want.Logits))
	}
	for j := range want.Logits {
		if len(got.Codes[j]) != len(want.Codes[j]) {
			t.Fatalf("%s sample %d: %d stages, golden %d", who, j, len(got.Codes[j]), len(want.Codes[j]))
		}
		for s, c := range want.Codes[j] {
			if got.Codes[j][s] != c {
				t.Fatalf("%s sample %d stage %d: codes\n%s\ngolden\n%s", who, j, s, got.Codes[j][s], c)
			}
		}
		if i, ok := sameFloats(got.Logits[j], want.Logits[j]); !ok {
			t.Fatalf("%s sample %d logit %d: %v, golden %v", who, j, i, got.Logits[j], want.Logits[j])
		}
	}
}
