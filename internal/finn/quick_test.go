package finn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// randomLegalFolding draws a legal folding for the model.
func randomLegalFolding(m *model.Model, rng *rand.Rand) Folding {
	convs := m.Net.Convs()
	denses := m.Net.Denses()
	f := Folding{
		ConvPE:    make([]int, len(convs)),
		ConvSIMD:  make([]int, len(convs)),
		DensePE:   make([]int, len(denses)),
		DenseSIMD: make([]int, len(denses)),
	}
	pick := func(n int) int {
		var ds []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				ds = append(ds, d)
			}
		}
		return ds[rng.Intn(len(ds))]
	}
	for i, c := range convs {
		f.ConvPE[i] = pick(c.OutC)
		f.ConvSIMD[i] = pick(c.Geom.KH * c.Geom.KW * c.Geom.InC)
	}
	for i, d := range denses {
		f.DensePE[i] = pick(d.Out)
		f.DenseSIMD[i] = pick(d.In)
	}
	return f
}

// Property: every legal folding maps successfully, and throughput is
// positive with latency ≥ II.
func TestQuickLegalFoldingsMap(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomLegalFolding(m, rng)
		if f.Validate(m) != nil {
			return false
		}
		df, err := Map(m, f, Options{})
		if err != nil {
			return false
		}
		return df.FPS() > 0 && df.LatencyCycles() >= df.IICycles()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: increasing any PE or SIMD to a larger divisor never slows the
// dataflow down (monotonicity of the cycle model in parallelism).
func TestQuickUnfoldingMonotone(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		f := randomLegalFolding(m, rng)
		df, err := Map(m, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := df.IICycles()
		// Bump one conv's PE to the next divisor if any.
		g := f.Clone()
		ci := rng.Intn(len(g.ConvPE))
		outC := m.Net.Convs()[ci].OutC
		next := 0
		for d := g.ConvPE[ci] + 1; d <= outC; d++ {
			if outC%d == 0 {
				next = d
				break
			}
		}
		if next == 0 {
			continue
		}
		g.ConvPE[ci] = next
		df2, err := Map(m, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if df2.IICycles() > base {
			t.Fatalf("unfolding conv %d PE %d→%d increased II %d→%d",
				ci, f.ConvPE[ci], next, base, df2.IICycles())
		}
	}
}

// Property: SetChannels with the worst-case channels always restores the
// original throughput, after any sequence of legal switches.
func TestQuickSetChannelsRestores(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	fold := DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	df, err := Map(m, fold, Options{Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	baseFPS := df.FPS()
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		ch := make([]int, len(df.WorstChannels))
		for i, w := range df.WorstChannels {
			// Random multiple of the granularity in (0, worst].
			steps := w / gs[i]
			ch[i] = gs[i] * (1 + rng.Intn(steps))
		}
		if err := df.SetChannels(ch); err != nil {
			t.Fatalf("legal channels %v rejected: %v", ch, err)
		}
		if df.FPS() < baseFPS-1e-9 {
			t.Fatalf("pruned channels %v slower than worst case", ch)
		}
		if err := df.SetChannels(df.WorstChannels); err != nil {
			t.Fatal(err)
		}
		if df.FPS() != baseFPS {
			t.Fatalf("restore failed: %v != %v", df.FPS(), baseFPS)
		}
	}
}

// TestMixedPrecisionPropagatesToModules: a model with an 8-bit input layer
// maps to a dataflow whose first MVTU carries 8-bit weights while the rest
// stay at the model default.
func TestMixedPrecisionPropagatesToModules(t *testing.T) {
	m, err := model.Build(model.Config{
		Name: "mixed", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{8, 16}, PoolAfter: []int{1}, DenseSizes: []int{32},
		InputWBits: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first, second *Module
	for _, mod := range df.Modules {
		switch mod.Name {
		case "mvtu0":
			first = mod
		case "mvtu1":
			second = mod
		}
	}
	if first == nil || second == nil {
		t.Fatal("MVTUs not found")
	}
	if first.WBits != 8 || second.WBits != 2 {
		t.Fatalf("module bits = %d/%d, want 8/2", first.WBits, second.WBits)
	}
}

func TestDescribe(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	df.Describe(&buf)
	out := buf.String()
	for _, want := range []string{"bottleneck", "mvtu1", "stream FIFOs", "II"} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe output missing %q:\n%s", want, out)
		}
	}
}
