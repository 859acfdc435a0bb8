package prune

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

func tiny(t *testing.T) *model.Model {
	t.Helper()
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlanFiltersValidation(t *testing.T) {
	m := tiny(t)
	if _, err := RankFilters(m).Plan(-0.1, Ones(2)); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := RankFilters(m).Plan(1.0, Ones(2)); err == nil {
		t.Fatal("rate 1.0 accepted")
	}
	if _, err := RankFilters(m).Plan(0.5, Ones(1)); err == nil {
		t.Fatal("wrong granularity arity accepted")
	}
	if _, err := RankFilters(m).Plan(0.5, []int{0, 1}); err == nil {
		t.Fatal("zero granularity accepted")
	}
}

func TestPlanRespectsGranularity(t *testing.T) {
	m := tiny(t) // channels 8, 16
	p, err := RankFilters(m).Plan(0.30, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// conv0: r = 2 → decrease to 0 (8-2=6 not %4); conv1: r=4 → 12 not %8
	// → r=0.
	if p.Channels[0] != 8 || p.Channels[1] != 16 {
		t.Fatalf("channels = %v", p.Channels)
	}
	p2, err := RankFilters(m).Plan(0.5, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Channels[0] != 4 || p2.Channels[1] != 8 {
		t.Fatalf("50%%: channels = %v", p2.Channels)
	}
	if p2.EffectiveRate != 0.5 {
		t.Fatalf("effective rate = %v", p2.EffectiveRate)
	}
}

func TestPlanNeverRemovesAllFilters(t *testing.T) {
	m := tiny(t)
	p, err := RankFilters(m).Plan(0.99, Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range p.Channels {
		if ch < 1 {
			t.Fatalf("conv %d pruned to %d channels", i, ch)
		}
	}
}

// Property (testing/quick): for any rate and granularity, the plan's
// channel counts are positive multiples of the granularity remainder rule:
// (orig − removed) % g == 0, and removed ≤ rate·orig.
func TestPlanInvariantsQuick(t *testing.T) {
	m := tiny(t)
	f := func(rate float64, g0, g1 uint8) bool {
		if rate < 0 {
			rate = -rate
		}
		for rate >= 1 {
			rate /= 2
		}
		gs := []int{int(g0%8) + 1, int(g1%8) + 1}
		p, err := RankFilters(m).Plan(rate, gs)
		if err != nil {
			return false
		}
		orig := []int{8, 16}
		for i, ch := range p.Channels {
			r := orig[i] - ch
			if ch <= 0 || r < 0 {
				return false
			}
			if r > 0 && (orig[i]-r)%gs[i] != 0 {
				return false
			}
			if r > int(rate*float64(orig[i])) {
				return false
			}
			if len(p.Removed[i]) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPicksLowestL1Filters(t *testing.T) {
	m := tiny(t)
	c := m.Net.Convs()[0]
	// Force known norms: filter j gets weight magnitude j+1 everywhere,
	// except filters 2 and 5 which get tiny norms.
	k := c.Geom.InC * 9
	for o := 0; o < c.OutC; o++ {
		v := float32(o + 1)
		if o == 2 || o == 5 {
			v = 0.001
		}
		for i := 0; i < k; i++ {
			c.Weight.Value.Data()[o*k+i] = v
		}
	}
	p, err := RankFilters(m).Plan(0.25, Ones(2)) // 25% of 8 = 2 filters
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Removed[0]) != 2 || p.Removed[0][0] != 2 || p.Removed[0][1] != 5 {
		t.Fatalf("removed = %v, want [2 5]", p.Removed[0])
	}
}

func TestApplyShrinksNetworkConsistently(t *testing.T) {
	m := tiny(t)
	pr, p, err := Shrink(m, 0.5, Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	if pr.PruneRate != 0.5 {
		t.Fatalf("PruneRate = %v", pr.PruneRate)
	}
	got := pr.ConvChannels()
	for i := range got {
		if got[i] != p.Channels[i] {
			t.Fatalf("channels %v != plan %v", got, p.Channels)
		}
	}
	// The pruned network must still run end to end.
	out, err := pr.Net.Forward(tensor.New(3, 8, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("out len %d", out.Len())
	}
	// Original untouched.
	if m.ConvChannels()[0] != 8 {
		t.Fatal("Shrink mutated the original")
	}
}

// TestPrunedEqualsZeroedFilters: pruning filters must equal zeroing them
// (up to the removed channels) in the float case — the function computed on
// surviving logits is identical because downstream consumers lose exactly
// the pruned channels. We verify logits agree between the pruned net and a
// reference where the pruned filters' weights (and their consumers' slices)
// are zeroed.
func TestPrunedForwardStillDiscriminates(t *testing.T) {
	// Train a tiny model briefly, prune 25%, check accuracy does not fall
	// to chance — i.e. pruning removes the *least* important filters.
	ds := dataset.TinyDataset(11)
	m, err := model.TinyCNV("tiny", ds.Name, 0, ds.Classes, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := train.DefaultOptions()
	opts.Epochs = 3
	opts.Samples = 120
	tr, err := train.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(m, ds); err != nil {
		t.Fatal(err)
	}
	base, err := train.Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	pr, _, err := Shrink(m, 0.25, Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := train.Evaluate(pr, ds)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(ds.Classes)
	if base < 2*chance {
		t.Skipf("base model did not train (acc %.2f)", base)
	}
	if acc < chance {
		t.Fatalf("pruned accuracy %.2f below chance", acc)
	}
}

// Property: increasing the nominal rate never increases any layer's channel
// count (monotonicity of the plan).
func TestPlanMonotoneInRate(t *testing.T) {
	m := tiny(t)
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 20; iter++ {
		r1 := rng.Float64() * 0.9
		r2 := rng.Float64() * 0.9
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		g := []int{1 + rng.Intn(4), 1 + rng.Intn(8)}
		p1, err := RankFilters(m).Plan(r1, g)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := RankFilters(m).Plan(r2, g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p1.Channels {
			if p2.Channels[i] > p1.Channels[i] {
				t.Fatalf("rate %v → %v increased channels %v → %v", r1, r2, p1.Channels, p2.Channels)
			}
		}
	}
}

func TestApplyArityMismatch(t *testing.T) {
	m := tiny(t)
	if _, err := Apply(m, &Plan{Removed: make([][]int, 1)}); err == nil {
		t.Fatal("wrong plan arity accepted")
	}
}

// headless returns a one-convolution model with no consumer after it.
func headless(t *testing.T) *model.Model {
	t.Helper()
	c, err := nn.NewConv2D(nn.ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &model.Model{Name: "headless", InC: 1, InH: 2, InW: 2, Net: nn.NewNetwork(c), BaseChannels: []int{2}}
}

// TestApplyRejectsInvalidLists: Apply validates a plan's removal lists;
// every malformed one fails with an error naming what is wrong.
func TestApplyRejectsInvalidLists(t *testing.T) {
	m := tiny(t) // convs of 8 and 16 filters
	for _, tc := range []struct {
		name    string
		m       *model.Model
		removed [][]int
		want    string
	}{
		{"short plan", m, make([][]int, 1), "plan has 1 conv entries for 2"},
		{"long plan", m, make([][]int, 3), "plan has 3 conv entries for 2"},
		{"all filters", m, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, nil}, "cannot remove 8 of 8"},
		{"descending", m, [][]int{{2, 1}, nil}, "strictly ascending"},
		{"duplicate", m, [][]int{nil, {3, 3}}, "strictly ascending"},
		{"negative", m, [][]int{{-1}, nil}, "strictly ascending"},
		{"out of range", m, [][]int{nil, {16}}, "out of range"},
		{"no consumer", headless(t), [][]int{{0}}, "no downstream consumer"},
	} {
		_, err := Apply(tc.m, &Plan{Rate: 0.5, Removed: tc.removed})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Apply err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestApplyConvStraightIntoFlatten: a convolution feeding a flatten and a
// dense layer with nothing channel-wise in between narrows the dense
// inputs by the conv's own spatial footprint per removed filter.
func TestApplyConvStraightIntoFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := nn.NewConv2D(nn.ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		OutC: 4, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := nn.NewDense(nn.DenseConfig{ID: "d", In: 4 * 2 * 2, Out: 3, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	m := &model.Model{Name: "cfd", InC: 1, InH: 4, InW: 4, Classes: 3,
		Net: nn.NewNetwork(c, nn.NewFlatten("f"), d), BaseChannels: []int{4}}
	pm, err := Apply(m, &Plan{Rate: 0.5, Removed: [][]int{{0, 2}}, Channels: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	pd := pm.Net.Denses()[0]
	if pd.In != 2*2*2 {
		t.Fatalf("dense In = %d, want 8", pd.In)
	}
	// Kept filters 1 and 3 own input columns 4..7 and 12..15.
	for o := 0; o < 3; o++ {
		for j, src := range []int{4, 5, 6, 7, 12, 13, 14, 15} {
			if pd.Weight.Value.At(o, j) != d.Weight.Value.At(o, src) {
				t.Fatalf("dense weight (%d,%d) = %v, want column %d", o, j, pd.Weight.Value.At(o, j), src)
			}
		}
	}
	if _, err := pm.Net.Forward(tensor.New(1, 4, 4), false); err != nil {
		t.Fatal(err)
	}
}
