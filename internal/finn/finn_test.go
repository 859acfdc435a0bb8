package finn

import (
	"testing"

	"repro/internal/model"
	"repro/internal/prune"
)

func paperModel(t *testing.T) *model.Model {
	t.Helper()
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyModel(t *testing.T) *model.Model {
	t.Helper()
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultFoldingLegal(t *testing.T) {
	for _, m := range []*model.Model{paperModel(t), tinyModel(t)} {
		f := DefaultFolding(m)
		if err := f.Validate(m); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestFoldingValidateRejects(t *testing.T) {
	m := tinyModel(t)
	f := DefaultFolding(m)
	f.ConvPE[0] = 3 // 8 % 3 != 0
	if err := f.Validate(m); err == nil {
		t.Fatal("illegal PE accepted")
	}
	f = DefaultFolding(m)
	f.ConvSIMD[0] = 5 // 9*3=27 % 5 != 0
	if err := f.Validate(m); err == nil {
		t.Fatal("illegal SIMD accepted")
	}
	f = DefaultFolding(m)
	f.ConvPE = f.ConvPE[:1]
	if err := f.Validate(m); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestMapFixedCNV(t *testing.T) {
	m := paperModel(t)
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if df.Flexible {
		t.Fatal("fixed map flagged flexible")
	}
	// 6 convs → 6 SWU + 6 MVTU, 2 pools, 3 denses, plus FIFOs.
	var swu, mvtuC, mvtuD, pool, fifo int
	for _, mod := range df.Modules {
		switch mod.Kind {
		case KindSWU:
			swu++
		case KindMVTUConv:
			mvtuC++
		case KindMVTUDense:
			mvtuD++
		case KindMaxPool:
			pool++
		case KindFIFO:
			fifo++
		}
	}
	if swu != 6 || mvtuC != 6 || mvtuD != 3 || pool != 2 {
		t.Fatalf("module census swu=%d mvtuC=%d mvtuD=%d pool=%d", swu, mvtuC, mvtuD, pool)
	}
	if fifo == 0 {
		t.Fatal("no FIFOs inserted")
	}
}

// TestCNVCapacityCalibration pins the paper-scale baseline throughput near
// the calibrated operating point (≈500 FPS at 100 MHz; see DESIGN.md).
// The edge experiments depend on this workload-to-capacity ratio.
func TestCNVCapacityCalibration(t *testing.T) {
	m := paperModel(t)
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fps := df.FPS()
	if fps < 400 || fps > 600 {
		t.Fatalf("baseline CNV FPS = %.1f, want ≈500 (II=%d)", fps, df.IICycles())
	}
}

func TestPruningSpeedupQuadraticShape(t *testing.T) {
	m := paperModel(t)
	fold := DefaultFolding(m)
	base, err := Map(m, fold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build a 25%-pruned copy (channels 48, 48, 96, 96, 192, 192 — all
	// satisfy the folding granularity).
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	pr, _, err := prune.Shrink(m, 0.25, gs)
	if err != nil {
		t.Fatal(err)
	}
	prFold := DefaultFolding(pr)
	pruned, err := Map(pr, prFold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := pruned.FPS() / base.FPS()
	// (1/0.75)² ≈ 1.78; allow the folding steps some slack.
	if speedup < 1.4 || speedup > 2.2 {
		t.Fatalf("25%% prune speedup = %.2f, want ≈1.78", speedup)
	}
}

func TestFlexibleMapAndSwitch(t *testing.T) {
	m := paperModel(t)
	fold := DefaultFolding(m)
	df, err := Map(m, fold, Options{Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	baseFPS := df.FPS()
	// Switch to 75% channels at runtime: no remap, just SetChannels.
	ch := make([]int, len(df.WorstChannels))
	for i, c := range df.WorstChannels {
		ch[i] = c * 3 / 4
	}
	if err := df.SetChannels(ch); err != nil {
		t.Fatal(err)
	}
	if sp := df.FPS() / baseFPS; sp < 1.4 || sp > 2.2 {
		t.Fatalf("flexible switch speedup = %.2f, want ≈1.78", sp)
	}
	// Switching back restores the original throughput.
	if err := df.SetChannels(df.WorstChannels); err != nil {
		t.Fatal(err)
	}
	if df.FPS() != baseFPS {
		t.Fatalf("restore: FPS %.2f != %.2f", df.FPS(), baseFPS)
	}
}

func TestFlexibleSwitchValidation(t *testing.T) {
	m := paperModel(t)
	df, err := Map(m, DefaultFolding(m), Options{Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.SetChannels([]int{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	too := append([]int(nil), df.WorstChannels...)
	too[0]++
	if err := df.SetChannels(too); err == nil {
		t.Fatal("channels above worst case accepted")
	}
	// Non-divisible channel count must be rejected and leave the dataflow
	// unchanged.
	bad := append([]int(nil), df.WorstChannels...)
	bad[1] = 63 // 63 % PE(8) != 0
	before := df.FPS()
	if err := df.SetChannels(bad); err == nil {
		t.Fatal("non-divisible channels accepted")
	}
	if df.FPS() != before {
		t.Fatal("failed switch mutated the dataflow")
	}
}

func TestFixedRejectsSwitch(t *testing.T) {
	m := paperModel(t)
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.SetChannels(df.WorstChannels); err == nil {
		t.Fatal("fixed accelerator accepted SetChannels")
	}
}

func TestFlexibleLatencyOverheadSmall(t *testing.T) {
	m := paperModel(t)
	fold := DefaultFolding(m)
	fixed, err := Map(m, fold, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flex, err := Map(m, fold, Options{Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := flex.LatencySeconds() / fixed.LatencySeconds()
	if ratio <= 1.0 || ratio > 1.05 {
		t.Fatalf("flexible latency overhead ratio = %.4f, want (1.00, 1.05]", ratio)
	}
}

func TestPipelineSimulationMatchesAnalytic(t *testing.T) {
	for _, m := range []*model.Model{tinyModel(t), paperModel(t)} {
		df, err := Map(m, DefaultFolding(m), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := df.SimulatePipeline(5)
		if err != nil {
			t.Fatal(err)
		}
		if st.SteadyII != df.IICycles() {
			t.Errorf("%s: measured II %d != analytic %d", m.Name, st.SteadyII, df.IICycles())
		}
		if st.FirstLatency != df.LatencyCycles() {
			t.Errorf("%s: measured latency %d != analytic %d", m.Name, st.FirstLatency, df.LatencyCycles())
		}
	}
}

func TestSimulatePipelineValidation(t *testing.T) {
	m := tinyModel(t)
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.SimulatePipeline(0); err == nil {
		t.Fatal("zero frames accepted")
	}
}

func TestChannelGranularity(t *testing.T) {
	m := paperModel(t)
	fold := DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 6 {
		t.Fatalf("granularity entries = %d", len(gs))
	}
	for i, g := range gs {
		if g <= 0 {
			t.Fatalf("granularity[%d] = %d", i, g)
		}
		// Channels pruned to any multiple of g must keep all folding
		// constraints: check divisibility by this layer's PE.
		if g%fold.ConvPE[i] != 0 {
			t.Fatalf("granularity[%d]=%d not a multiple of PE %d", i, g, fold.ConvPE[i])
		}
	}
}

func TestMACsAndWeights(t *testing.T) {
	m := paperModel(t)
	df, err := Map(m, DefaultFolding(m), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var macs, w int64
	for _, mod := range df.Modules {
		macs += mod.MACs()
		w += mod.SynWeights()
	}
	if macs <= 0 {
		t.Fatal("no MACs")
	}
	// CNV conv weights: 9·(3·64+64·64+64·128+128·128+128·256+256·256)
	// plus dense 256·512+512·512+512·10.
	wantConv := int64(9 * (3*64 + 64*64 + 64*128 + 128*128 + 128*256 + 256*256))
	wantDense := int64(256*512 + 512*512 + 512*10)
	if w != wantConv+wantDense {
		t.Fatalf("weights = %d, want %d", w, wantConv+wantDense)
	}
}

func TestModuleValidateErrors(t *testing.T) {
	bad := &Module{Kind: KindMVTUConv, Name: "m", SynInC: 4, SynOutC: 8,
		KH: 3, KW: 3, PE: 3, SIMD: 9, CurInC: 4, CurOutC: 8}
	if err := bad.Validate(); err == nil {
		t.Fatal("PE not dividing OutC accepted")
	}
	bad2 := &Module{Kind: KindMVTUConv, Name: "m", SynInC: 4, SynOutC: 8,
		KH: 3, KW: 3, PE: 8, SIMD: 7, CurInC: 4, CurOutC: 8}
	if err := bad2.Validate(); err == nil {
		t.Fatal("SIMD not dividing K²InC accepted")
	}
	neg := &Module{Kind: KindSWU, Name: "s", SynInC: 0}
	if err := neg.Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
}
