package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// stageNetConfig shapes stageNet: the defaults give a network whose every
// quantized layer is staged.
type stageNetConfig struct {
	poolPad   int  // padding of the pool (a padded pool is not pooled on levels)
	actBits   int  // activation bits of the first QuantAct (3 bits do not decompose)
	noAffine  bool // QuantAct without a ScaleShift after conv c0
	noAct     bool // ScaleShift without a QuantAct (a ReLU) after conv c0
	floatGap  bool // a ReLU between the pool and conv c1
	sampleLen int  // the batch size
}

// stageNet builds conv c0 → bn0 → act0 → pool → conv c1 → bn1 → act1 →
// flatten → dense fc0 → bn2 → act2 → float head, with random biases and
// affines, varied by cfg, and a batch of random 3×8×8 inputs.
func stageNet(t *testing.T, cfg stageNetConfig, seed int64) (*Network, []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	wq, err := quant.NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	act := func(bits int) *quant.ActQuantizer {
		q, err := quant.NewActQuantizer(bits, 2)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	randomize := func(ps ...*Param) {
		for _, p := range ps {
			for i := range p.Value.Data() {
				p.Value.Data()[i] = float32(rng.NormFloat64()) * 0.3
			}
		}
	}
	affine := func(id string, ch int) *ScaleShift {
		ss, err := NewScaleShift(id, ch)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ch {
			ss.Gamma.Value.Data()[c] = float32(rng.NormFloat64() * 2)
			ss.Beta.Value.Data()[c] = float32(1 + rng.NormFloat64())
		}
		return ss
	}
	must := func(l Layer, err error) Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	c0 := must(NewConv2D(ConvConfig{ID: "c0", Geom: tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 6, Bias: true, WQuant: wq, PerChannel: true, InitRNG: rng})).(*Conv2D)
	randomize(c0.Bias)
	actBits := cfg.actBits
	if actBits == 0 {
		actBits = 2
	}
	layers := []Layer{c0}
	if !cfg.noAffine {
		layers = append(layers, affine("bn0", 6))
	}
	if cfg.noAct {
		layers = append(layers, NewReLU("r0"))
	} else {
		layers = append(layers, must(NewQuantAct("act0", act(actBits))))
	}
	pg := tensor.ConvGeom{InC: 6, InH: 8, InW: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: cfg.poolPad, PadW: cfg.poolPad}
	layers = append(layers, must(NewMaxPool2D("p0", pg)))
	if cfg.floatGap {
		layers = append(layers, NewReLU("gap"))
	}
	c1 := must(NewConv2D(ConvConfig{ID: "c1", Geom: tensor.ConvGeom{InC: 6, InH: pg.OutH(), InW: pg.OutW(), KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		OutC: 5, Bias: true, WQuant: wq, InitRNG: rng})).(*Conv2D)
	randomize(c1.Bias)
	flat := 5 * c1.Geom.OutH() * c1.Geom.OutW()
	fc0 := must(NewDense(DenseConfig{ID: "fc0", In: flat, Out: 12, Bias: true, WQuant: wq, InitRNG: rng})).(*Dense)
	randomize(fc0.Bias)
	head := must(NewDense(DenseConfig{ID: "head", In: 12, Out: 4, Bias: true, InitRNG: rng}))
	layers = append(layers, c1, affine("bn1", 5), must(NewQuantAct("act1", act(2))), NewFlatten("f"),
		fc0, affine("bn2", 12), must(NewQuantAct("act2", act(2))), head)
	bsz := cfg.sampleLen
	if bsz == 0 {
		bsz = 3
	}
	xs := make([]*tensor.Tensor, bsz)
	for j := range xs {
		xs[j] = tensor.New(3, 8, 8)
		for i := range xs[j].Data() {
			xs[j].Data()[i] = float32(rng.NormFloat64())
		}
	}
	return NewNetwork(layers...), xs
}

// checkStaged demands that ForwardBatch return what the per-layer loop
// returns, outputs bit for bit or the same error text, and the outputs of
// per-sample Forward (or, for one sample, its error), without panicking.
func checkStaged(t *testing.T, name string, net *Network, xs []*tensor.Tensor) {
	t.Helper()
	want, wantErr := LayerByLayerBatch(net, xs)
	got, err := func() (outs []*tensor.Tensor, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return net.ForwardBatch(xs)
	}()
	sameOutputs(t, name+": staged against per layer", got, err, want, wantErr)
	for j, x := range xs {
		single, err := net.Forward(x, false)
		switch {
		case wantErr == nil:
			sameOutputs(t, fmt.Sprintf("%s: sample %d against Forward", name, j), got[j:j+1], nil, []*tensor.Tensor{single}, err)
		case len(xs) == 1: // a batch error names the sample's index in the batch
			sameOutputs(t, name+": against Forward", nil, wantErr, nil, err)
		}
	}
}

// sameOutputs demands the same outputs bit for bit, or the same error
// text.
func sameOutputs(t *testing.T, name string, got []*tensor.Tensor, gotErr error, want []*tensor.Tensor, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for j := range want {
		for i, v := range want[j].Data() {
			if math.Float32bits(got[j].Data()[i]) != math.Float32bits(v) {
				t.Fatalf("%s sample %d out[%d]: %v, want %v", name, j, i, got[j].Data()[i], v)
			}
		}
	}
}

// TestStagedForwardFallbacks feeds the staged path what it does not stage
// and what it must refuse: non-finite pixels, affines that overflow or
// cannot be folded, outputs that are not finite, layer patterns it leaves
// to the per-layer loop, and SetInt8GEMM(false). Each must give the
// per-layer loop's outputs or error text. The staged counts say which
// quantized layers read levels.
func TestStagedForwardFallbacks(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name   string
		cfg    stageNetConfig
		edit   func(net *Network, xs []*tensor.Tensor)
		staged []string // the quantized layers served from levels
	}{
		{"clean", stageNetConfig{}, nil, []string{"c1", "fc0"}},
		{"one sample", stageNetConfig{sampleLen: 1}, nil, []string{"c1", "fc0"}},
		{"NaN pixel", stageNetConfig{}, func(_ *Network, xs []*tensor.Tensor) { xs[1].Data()[5] = nan }, nil},
		{"+Inf pixel", stageNetConfig{}, func(_ *Network, xs []*tensor.Tensor) { xs[2].Data()[0] = inf }, nil},
		{"-Inf pixel", stageNetConfig{sampleLen: 1}, func(_ *Network, xs []*tensor.Tensor) { xs[0].Data()[7] = -inf }, nil},
		{"γ overflows γ·a+β", stageNetConfig{}, func(net *Network, _ []*tensor.Tensor) {
			affineAt(net, 1).Gamma.Value.Data()[0] = 3e38
			affineAt(net, 1).Gamma.Value.Data()[1] = -3e38
		}, []string{"c1", "fc0"}},
		{"NaN β", stageNetConfig{}, func(net *Network, _ []*tensor.Tensor) {
			affineAt(net, 1).Beta.Value.Data()[2] = nan
		}, nil},
		{"infinite γ", stageNetConfig{}, func(net *Network, _ []*tensor.Tensor) {
			affineAt(net, 5).Gamma.Value.Data()[0] = -inf
		}, []string{"c1"}},
		{"NaN conv bias", stageNetConfig{}, func(net *Network, _ []*tensor.Tensor) {
			net.Layers[0].Layer.(*Conv2D).Bias.Value.Data()[3] = nan
		}, nil},
		{"infinite conv bias", stageNetConfig{}, func(net *Network, _ []*tensor.Tensor) {
			net.Layers[0].Layer.(*Conv2D).Bias.Value.Data()[3] = inf
		}, []string{"fc0"}},
		{"QuantAct without ScaleShift", stageNetConfig{noAffine: true}, nil, []string{"fc0"}},
		{"ScaleShift without QuantAct", stageNetConfig{noAct: true}, nil, []string{"fc0"}},
		{"padded pool", stageNetConfig{poolPad: 1}, nil, []string{"fc0"}},
		{"float layer between", stageNetConfig{floatGap: true}, nil, []string{"fc0"}},
		{"3-bit levels on seven planes", stageNetConfig{actBits: 3}, nil, []string{"c1", "fc0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forceInt8(t)
			net, xs := stageNet(t, tc.cfg, 101)
			if tc.edit != nil {
				tc.edit(net, xs)
			}
			before := levelCounts(net)
			checkStaged(t, tc.name, net, xs)
			if _, err := LayerByLayerBatch(net, xs); err != nil {
				return
			}
			after := levelCounts(net)
			for id, n := range after {
				want := 0
				for _, s := range tc.staged {
					if s == id {
						want = len(xs)
					}
				}
				if n-before[id] != want {
					t.Errorf("%s: %d samples from levels, want %d", id, n-before[id], want)
				}
			}
		})
	}
	t.Run("SetInt8GEMM(false)", func(t *testing.T) {
		forceFloat(t)
		net, xs := stageNet(t, stageNetConfig{}, 102)
		checkStaged(t, "float", net, xs)
		for id, n := range levelCounts(net) {
			if n != 0 {
				t.Errorf("%s: %d samples from levels with the integer path off", id, n)
			}
		}
	})
}

// affineAt returns the ScaleShift at layer i.
func affineAt(net *Network, i int) *ScaleShift { return net.Layers[i].Layer.(*ScaleShift) }

// levelCounts returns each quantized layer's count of samples served from
// levels.
func levelCounts(net *Network) map[string]int {
	counts := map[string]int{}
	for _, nl := range net.Layers {
		switch l := nl.Layer.(type) {
		case *Conv2D:
			counts[l.ID] = int(l.levelForwards)
		case *Dense:
			if l.Quant != nil {
				counts[l.ID] = int(l.levelForwards)
			}
		}
	}
	return counts
}

// TestStagedLadderCacheInvalidation: the folded ladder is cached on the
// ScaleShift, keyed on a bitwise copy of γ and β. Mutating γ with
// BumpVersion, scaling it in place without one, swapping in a new Beta
// Param, and cloning a layer must each be seen by the next ForwardBatch.
func TestStagedLadderCacheInvalidation(t *testing.T) {
	forceInt8(t)
	net, xs := stageNet(t, stageNetConfig{}, 103)
	checkStaged(t, "warm", net, xs)
	ss := affineAt(net, 5)
	for c := range ss.Gamma.Value.Data() {
		ss.Gamma.Value.Data()[c] *= -1.5
	}
	ss.Gamma.BumpVersion()
	checkStaged(t, "γ mutated and bumped", net, xs)
	for c := range ss.Gamma.Value.Data() {
		ss.Gamma.Value.Data()[c] *= 1.75
	}
	checkStaged(t, "γ scaled in place, no bump", net, xs)
	beta := tensor.New(ss.Channels)
	for c := range beta.Data() {
		beta.Data()[c] = 2.5 - 0.7*float32(c)
	}
	ss.Beta = newParam("bn1.beta", beta)
	checkStaged(t, "β swapped", net, xs)
	clone := ss.CloneLayer().(*ScaleShift)
	clone.Gamma.Value.Data()[0] = 0
	net.Layers[5].Layer = clone
	checkStaged(t, "cloned layer", net, xs)
	cloned, err := CloneNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	affineAt(cloned, 1).Beta.Value.Data()[0] = -4
	checkStaged(t, "cloned network", cloned, xs)
	checkStaged(t, "original after clone", net, xs)
}

// TestPoolLevelsMatchesForward pools random levels over an odd input, so
// the last row and column fall outside every window: the pooled levels
// must stand for Forward's floats, and the level set must be recomputed,
// since a level held only outside the windows is gone.
func TestPoolLevelsMatchesForward(t *testing.T) {
	q, err := quant.NewActQuantizer(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaxPool2D("p", tensor.ConvGeom{InC: 3, InH: 5, InW: 5, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(104))
	lv := newLevelBatch(q, 4, 3, 5, 5)
	defer lv.release()
	for j, x := range lv.levels {
		for i := range x {
			x[i] = uint8(rng.Intn(3))
		}
		if j%2 == 0 {
			x[4] = uint8(q.Levels()) // the top level, outside every window
		}
		lv.present[j] = levelSet(x)
	}
	out := m.poolLevels(lv)
	defer out.release()
	for j, x := range lv.floats() {
		want, err := m.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		got := out.floats()[j]
		sameOutputs(t, fmt.Sprintf("sample %d", j), []*tensor.Tensor{got}, nil, []*tensor.Tensor{want}, nil)
		if out.present[j] != levelSet(out.levels[j]) || out.present[j]>>q.Levels() != 0 {
			t.Fatalf("sample %d: level set %b, pooled levels hold %b", j, out.present[j], levelSet(out.levels[j]))
		}
	}
}

// TestPool2x2MatchesGeneric compares the SWAR 2×2 stride-2 pool with the
// generic window loop on widths 2 to 33 (odd ones leave a column outside
// every window, and widths past 8 reach the word loop and its tail),
// heights 2, 3 and 8, random levels 0 to 63 and rows of the top level, at
// batches 1 and 8: the pooled levels and the level set must agree.
func TestPool2x2MatchesGeneric(t *testing.T) {
	q, err := quant.NewActQuantizer(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(105))
	for w := 2; w <= 33; w++ {
		for _, h := range []int{2, 3, 8} {
			for _, bsz := range []int{1, 8} {
				m, err := NewMaxPool2D("p", tensor.ConvGeom{InC: 3, InH: h, InW: w, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
				if err != nil {
					t.Fatal(err)
				}
				lv := newLevelBatch(q, bsz, 3, h, w)
				for j, x := range lv.levels {
					for i := range x {
						x[i] = uint8(rng.Intn(maxLevels))
						if j%4 == 1 {
							x[i] &= 3 // few levels, many ties
						}
					}
					if j%4 == 2 {
						for i := range x[:w] {
							x[i] = maxLevels - 1
						}
					}
					lv.present[j] = levelSet(x)
				}
				out := m.poolLevels(lv)
				want := make([]uint8, len(out.levels[0]))
				for j, x := range lv.levels {
					m.poolGeneric(want, x)
					if got := out.levels[j]; string(got) != string(want) || out.present[j] != levelSet(want) {
						t.Fatalf("w=%d h=%d B=%d sample %d: SWAR %v set %b, generic %v set %b",
							w, h, bsz, j, got, out.present[j], want, levelSet(want))
					}
				}
				out.release()
				lv.release()
			}
		}
	}
}

// BenchmarkStageEpilogue times the staged epilogue of CNVW2A2's first two
// layers at batch 8 on 64 channels: the threshold count over conv0's and
// conv1's rescaled outputs (30×30 and 28×28) with a bias, and the 2×2
// level pool over levels of those shapes.
func BenchmarkStageEpilogue(b *testing.B) {
	const bsz, channels = 8, 64
	rng := rand.New(rand.NewSource(106))
	q, err := quant.NewActQuantizer(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	lad, err := newAffineLadder(q, randoms(rng, channels, 1), randoms(rng, channels, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	bias := newParam("b", tensor.New(channels))
	copy(bias.Value.Data(), randoms(rng, channels, 0.1))
	for _, layer := range []struct {
		name string
		hw   int
	}{{"conv0", 30}, {"conv1", 28}} {
		shape := []int{channels, layer.hw, layer.hw}
		dsts := make([]*tensor.Tensor, bsz)
		for j := range dsts {
			dsts[j] = tensor.New(channels, layer.hw*layer.hw)
			copy(dsts[j].Data(), randoms(rng, channels*layer.hw*layer.hw, 1))
		}
		b.Run("ladder/"+layer.name, func(b *testing.B) {
			for b.Loop() {
				lad.levels(dsts, bias, shape).release()
			}
		})
		lv := lad.levels(dsts, bias, shape)
		m, err := NewMaxPool2D("p", tensor.ConvGeom{InC: channels, InH: layer.hw, InW: layer.hw, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("pool/"+layer.name, func(b *testing.B) {
			for b.Loop() {
				m.poolLevels(lv).release()
			}
		})
		lv.release()
	}
}

// randoms returns n normal draws times scale.
func randoms(rng *rand.Rand, n int, scale float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * scale)
	}
	return v
}
