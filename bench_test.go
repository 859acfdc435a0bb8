package adaflow

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the DESIGN.md ablations and micro-benchmarks of the
// hot substrates. Key reproduction numbers are attached to the benchmark
// output via b.ReportMetric, so `go test -bench=. -benchmem` regenerates
// the paper's result set; cmd/adaflow-repro prints the full tables.

import (
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/finn"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchRuns keeps per-iteration simulation cost reasonable; the paper
// averages 100 runs, which cmd/adaflow-repro uses by default.
const benchRuns = 10

// BenchmarkFig1a regenerates Figure 1(a): accuracy and FPS vs pruning rate
// for CNVW2A2/CIFAR-10 on FINN.
func BenchmarkFig1a(b *testing.B) {
	var last *experiments.Fig1aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1a()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	first, end := last.Points[0], last.Points[len(last.Points)-1]
	b.ReportMetric(first.FPS, "baseline-FPS")
	b.ReportMetric(end.FPS/first.FPS, "fps-gain-85pct")
	b.ReportMetric((first.Accuracy-end.Accuracy)*100, "acc-drop-85pct-pts")
}

// BenchmarkFig1b regenerates Figure 1(b): frame loss vs reconfiguration
// time for model switching via FPGA reconfigurations.
func BenchmarkFig1b(b *testing.B) {
	var last *experiments.Fig1bResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1b(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	for _, s := range last.Series {
		switch s.Label {
		case "No Pruning":
			b.ReportMetric(s.FrameLossPct, "loss-nopruning-pct")
		case "Pruning Reconf. 0ms":
			b.ReportMetric(s.FrameLossPct, "loss-ideal-pct")
		case "Pruning Reconf. 362ms":
			b.ReportMetric(s.FrameLossPct, "loss-362ms-pct")
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): FPGA resources for FINN vs
// Flexible vs Fixed accelerators.
func BenchmarkFig5a(b *testing.B) {
	var last *experiments.Fig5aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.MeasuredFlexLUTRatio, "flex-LUT-ratio(paper-1.92)")
	b.ReportMetric(last.MeasuredFixedRed85Pct*100, "fixed-LUT-red-85pct(paper-46.2)")
}

// BenchmarkFig5b regenerates Figure 5(b): accuracy vs energy per
// inference on CIFAR-10.
func BenchmarkFig5b(b *testing.B) {
	benchFig5bc(b, "cifar10")
}

// BenchmarkFig5c regenerates Figure 5(c): the same on GTSRB.
func BenchmarkFig5c(b *testing.B) {
	benchFig5bc(b, "gtsrb")
}

func benchFig5bc(b *testing.B, ds string) {
	b.Helper()
	var last *experiments.Fig5bcResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5bc(ds)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.MeasuredFixedRed25, "fixed-energy-red-25pct(paper-1.64)")
	b.ReportMetric(last.MeasuredFlexRed25, "flex-energy-red-25pct(paper-1.38)")
}

// BenchmarkTable1 regenerates Table I: frame loss, QoE, power, power
// efficiency across all dataset/model pairs and scenarios.
func BenchmarkTable1(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	var eff, proc float64
	for _, row := range last.Rows {
		eff += row.PowerEffRatio
		if row.FINN.Processed > 0 {
			proc += row.AdaFlow.Processed / row.FINN.Processed
		}
	}
	n := float64(len(last.Rows))
	b.ReportMetric(proc/n, "avg-inference-gain(paper-1.3)")
	b.ReportMetric(eff/n, "avg-power-eff(paper-1.27)")
}

// BenchmarkFig6a regenerates Figure 6(a): frame-loss traces with model
// switches under Scenarios 1, 2 and 1+2.
func BenchmarkFig6a(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	for _, s := range last.Series {
		if s.Label == "AdaFlow" && s.Scenario == "scenario2" {
			b.ReportMetric(float64(s.Stats.Switches), "scen2-switches(paper-31)")
			b.ReportMetric(float64(s.Stats.Reconfigs), "scen2-reconfigs(paper-~0)")
		}
	}
}

// BenchmarkFig6b regenerates Figure 6(b): the QoE traces of the same runs.
func BenchmarkFig6b(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(2)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	var ada, fn float64
	for _, s := range last.Series {
		if s.Scenario == "scenario1+2" {
			if s.Label == "AdaFlow" {
				ada = s.Stats.QoEPct
			} else {
				fn = s.Stats.QoEPct
			}
		}
	}
	b.ReportMetric(ada, "QoE-adaflow-scen1+2")
	b.ReportMetric(fn, "QoE-finn-scen1+2")
}

// BenchmarkAblationSwitchCriteria sweeps the Fixed/Flexible selection
// criteria multiple (the paper fine-tunes 10×).
func BenchmarkAblationSwitchCriteria(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSwitchCriteria([]float64{1, 10, 100}, benchRuns/2+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
	}
}

// BenchmarkAblationThreshold sweeps the user accuracy threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationThreshold([]float64{0.05, 0.10, 0.20}, benchRuns/2+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
	}
}

// BenchmarkAblationPolicy compares the accuracy-first and energy-first
// model-selection policies.
func BenchmarkAblationPolicy(b *testing.B) {
	var last *experiments.AblationPolicyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPolicy(benchRuns/2+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.Rows[0].PowerEff, "throughput-policy-inf-per-J")
	b.ReportMetric(last.Rows[1].PowerEff, "energy-policy-inf-per-J")
}

// BenchmarkAblationConstraintRelax measures how many freely-pruned models
// the dataflow constraints would reject.
func BenchmarkAblationConstraintRelax(b *testing.B) {
	var last *experiments.AblationConstraintsResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationConstraintRelax()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(float64(last.FreeViolates), "free-prune-violations")
	b.ReportMetric(float64(last.Total), "versions-total")
}

// BenchmarkExtChurn runs the device-churn extension experiment (variable
// number of connected nodes, which the paper motivates but does not
// evaluate).
func BenchmarkExtChurn(b *testing.B) {
	var last *experiments.ExtChurnResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtChurn(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.AdaFlow.FrameLossPct, "ada-loss-pct")
	b.ReportMetric(last.FINN.FrameLossPct, "finn-loss-pct")
}

// BenchmarkExtPoolScaling runs the multi-FPGA scaling study (the authors'
// follow-up direction, the paper's reference [3]).
func BenchmarkExtPoolScaling(b *testing.B) {
	var last *experiments.ExtPoolResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtPoolScaling(3, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.Rows[0].PowerEff, "one-board-inf-per-J")
	b.ReportMetric(last.Rows[3].PowerEff, "four-board-inf-per-J")
}

// BenchmarkAblationFoldingExplorer traces the FPS-vs-LUT frontier of the
// folding design space (FINN's folding-configuration step).
func BenchmarkAblationFoldingExplorer(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	var lut460, lut1800 float64
	for i := 0; i < b.N; i++ {
		r1, err := explore.TargetFPS(m, 460, explore.Options{MaxIterations: 4000})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := explore.TargetFPS(m, 1800, explore.Options{MaxIterations: 8000})
		if err != nil {
			b.Fatal(err)
		}
		lut460, lut1800 = float64(r1.Res.LUT), float64(r2.Res.LUT)
	}
	b.ReportMetric(lut460, "LUT-at-460fps")
	b.ReportMetric(lut1800, "LUT-at-1800fps")
}

// BenchmarkExtEngineComparison evaluates the §II dataflow-vs-single-engine
// architecture comparison.
func BenchmarkExtEngineComparison(b *testing.B) {
	var last *experiments.ExtEngineResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtEngineComparison()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.Rows[0].FPS/last.Rows[1].FPS, "dataflow-speedup-equal-array")
}

// ---- substrate micro-benchmarks ----

// BenchmarkGemm measures the GEMM kernel behind convolution lowering.
func BenchmarkGemm(b *testing.B) {
	a := tensor.New(64, 576)
	for i := range a.Data() {
		a.Data()[i] = float32(i%13) * 0.1
	}
	c := tensor.New(576, 196)
	for i := range c.Data() {
		c.Data()[i] = float32(i%7) * 0.2
	}
	dst := tensor.New(64, 196)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.GemmInto(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGemmInt8 measures the integer fast-path kernel on the same
// 64×576·576×196 shape as BenchmarkGemm, so the two rows of a bench run
// read directly as the int8-vs-float kernel comparison.
func BenchmarkGemmInt8(b *testing.B) {
	a := tensor.NewInt8Matrix(64, 576)
	for i := range a.Data {
		a.Data[i] = int8(i%5 - 2)
	}
	c := tensor.NewInt8Matrix(576, 196)
	for i := range c.Data {
		c.Data[i] = int8(i%11 - 5)
	}
	dst := make([]int32, 64*196)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.GemmInt8Into(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGemmSizes compares the serial fast path against the pooled
// parallel path on small/medium/large square GEMMs, writing into reused
// scratch so allocs/op shows the zero-allocation steady state.
func BenchmarkGemmSizes(b *testing.B) {
	for _, size := range []struct {
		name string
		dim  int
	}{{"small-32", 32}, {"medium-128", 128}, {"large-384", 384}} {
		a := tensor.New(size.dim, size.dim)
		c := tensor.New(size.dim, size.dim)
		for i := range a.Data() {
			a.Data()[i] = float32(i%13)*0.1 - 0.5
			c.Data()[i] = float32(i%7)*0.2 - 0.5
		}
		dst := tensor.New(size.dim, size.dim)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} { // 0 resets the cap to NumCPU
			b.Run(size.name+"/"+mode.name, func(b *testing.B) {
				prev := tensor.SetMaxWorkers(mode.workers)
				defer tensor.SetMaxWorkers(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tensor.GemmInto(dst, a, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIm2Col measures the sliding-window lowering (the software SWU)
// on the first-conv geometry of the paper's CNV, into reused scratch.
func BenchmarkIm2Col(b *testing.B) {
	g := tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := tensor.New(3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = float32(i%11) * 0.1
	}
	dst := tensor.Borrow(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	defer tensor.Release(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.Im2ColInto(dst, in, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvForward measures one quantized convolution inference pass —
// the per-image hot path of accuracy sweeps — where the EffectiveWeights
// cache and the pooled im2col scratch keep steady-state allocations to the
// output tensor alone.
func BenchmarkConvForward(b *testing.B) {
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		b.Fatal(err)
	}
	conv, err := nn.NewConv2D(nn.ConvConfig{
		ID: "bench",
		Geom: tensor.ConvGeom{
			InC: 64, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		},
		OutC: 64, Bias: true, WQuant: q,
		InitRNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%9)*0.25 - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvForwardInt8 runs the BenchmarkConvForward layer with the
// inference path pinned to each kernel, isolating the integer fast path
// win from whatever the session default is (BenchmarkConvForward itself
// uses the default, which is the int8 path for this 2-bit layer).
func BenchmarkConvForwardInt8(b *testing.B) {
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		b.Fatal(err)
	}
	conv, err := nn.NewConv2D(nn.ConvConfig{
		ID: "bench-int8",
		Geom: tensor.ConvGeom{
			InC: 64, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		},
		OutC: 64, Bias: true, WQuant: q,
		InitRNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%9)*0.25 - 1
	}
	for _, bc := range []struct {
		name string
		int8 bool
	}{{"int8", true}, {"float", false}} {
		b.Run(bc.name, func(b *testing.B) {
			prev := nn.SetInt8GEMM(bc.int8)
			defer nn.SetInt8GEMM(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conv.Forward(x, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTinyInference measures one quantized forward pass.
func BenchmarkTinyInference(b *testing.B) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(3, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Net.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one training epoch of the tiny model.
func BenchmarkTrainEpoch(b *testing.B) {
	ds := dataset.TinyDataset(1)
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := train.DefaultOptions()
	opts.Epochs = 1
	opts.Samples = 80
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := train.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Fit(m, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataflowPipelineSim measures the event-driven pipeline
// simulator on the paper-scale CNV.
func BenchmarkDataflowPipelineSim(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	df, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := df.SimulatePipeline(100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLibraryGenerate measures the full design-time sweep (18 pruned
// versions, 18 fixed accelerators, one flexible) at paper scale, serial
// versus fanned over all cores.
func BenchmarkLibraryGenerate(b *testing.B) {
	p := experiments.Pairs[0]
	m, err := model.CNVW2A2(p.Dataset, p.Classes, 1)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := newCalibrated(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := library.Generate(m, library.Config{Evaluator: ev, Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExploreTargetFPS measures one greedy folding search. The cold
// variant clears the evaluation cache every iteration (full incremental
// search from scratch); the warm variant re-runs the same search against a
// primed cache, isolating the memoization win.
func BenchmarkExploreTargetFPS(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	const target = 1800
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.ResetCache()
			if _, err := explore.TargetFPS(m, target, explore.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		explore.ResetCache()
		if _, err := explore.TargetFPS(m, target, explore.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := explore.TargetFPS(m, target, explore.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func newCalibrated(p experiments.Pair) (Evaluator, error) {
	return NewCalibratedEvaluator(p.ModelName, p.Dataset)
}

// BenchmarkPrunePlan measures dataflow-aware plan construction on the
// paper-scale model.
func BenchmarkPrunePlan(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	fold := finn.DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prune.PlanFilters(m, 0.45, gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeScenarioRun measures one full 25-second edge simulation.
func BenchmarkEdgeScenarioRun(b *testing.B) {
	p := experiments.Pairs[0]
	lib, err := experiments.Lib(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edge.Run(edge.Scenario2(), edge.NewStaticFINN(lib), edge.SimConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- serving hot paths: allocation ceilings and profiling entry points ----

// hotPath is one serving hot-path case. TestHotPathAllocs holds its
// allocations per operation under maxAllocs, and Benchmark<bench>/<name>
// runs the same operation for profiling. setup builds what every
// operation shares and returns operation i, which runs with seed i.
type hotPath struct {
	bench, name string
	// maxAllocs is the allocs/op the test measured plus the margin the
	// case's comment states. Counts repeat to within one allocation, so
	// each margin is a few allocations: less than one allocation per DES
	// event, heartbeat or model switch would add.
	maxAllocs float64
	setup     func(tb testing.TB) func(i int)
}

var hotPaths = []hotPath{
	// The AdaFlow controller and Runtime Manager over the full 25 s
	// Scenario 2, tracing and adaptation off: both must stay free when
	// disabled. Measured 261; margin 4.
	{"RunEdge", "fluid", 265, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdge, SimConfig{})
	}},
	// The event-level simulator under a deadline, every frame an event:
	// batch=1 dispatches per frame, batch=8 amortizes the per-dispatch
	// costs (service completions, their engine events, controller
	// bookkeeping) over eight frames. Measured 210–211 and 214; margin 4.
	{"RunEdge", "batch=1", 215, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdgeEventLevel, SimConfig{
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 1},
		})
	}},
	{"RunEdge", "batch=8", 218, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdgeEventLevel, SimConfig{
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 8},
		})
	}},
	// The closed drift-recovery loop (detect, retrain, swap) under a
	// sustained shift. Measured 272; margin 4.
	{"RunEdge", "adapt", 276, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdge, SimConfig{
			FaultConfig: FaultConfig{Plan: mustPlan(tb, "drift-sustained:p=1,start=5,mag=-0.15"), Seed: 1},
			Adapt:       AdaptConfig{Enabled: true},
		})
	}},
	// A supervised four-board pool over the hybrid scenario. Healthy:
	// heartbeats and health bookkeeping must stay free when no fault
	// fires. One-dead: a board crashes mid-run (detection, failover,
	// capacity redistribution). Batched: an 8-frame dispatch queue per
	// board, advanced on the heartbeats. Measured 344, 334 and 344;
	// margin 4.
	{"PoolRun", "healthy", 348, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4}, nil)
	}},
	{"PoolRun", "one-dead", 338, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4}, mustPlan(tb, "board-crash:p=1,board=0,start=5,end=5.05,repair=60"))
	}},
	{"PoolRun", "batched", 348, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4, Batch: 8}, nil)
	}},
	// The fleet scheduler: 1000 streams on 8 supervised pools for 5
	// epochs. Placement, rebalancing and aggregation must stay cheap next
	// to the serving they orchestrate; one-pool-dead crashes every board
	// of pool 0 mid-run (migration, blackout accounting, repair).
	// Measured 5461–5462 and 5420–5421; margin 20, below the ~2000
	// allocations one per heartbeat would add.
	{"ClusterRun", "healthy", 5482, func(tb testing.TB) func(int) {
		return clusterOp(tb, nil, nil)
	}},
	{"ClusterRun", "one-pool-dead", 5441, func(tb testing.TB) func(int) {
		return clusterOp(tb, mustPlan(tb, "board-crash:p=1,start=6,end=6.3,repair=8"), []int{0})
	}},
	// 1000 events through the calendar queue. The closure is hoisted out
	// of the schedule loop so the count is the engine's own (event
	// storage, queue bookkeeping): slab-allocated events cost a few
	// allocations per thousand, not one each. Measured 44; margin 2.
	{"DESKernel", "calendar", 46, func(tb testing.TB) func(int) {
		return func(int) {
			e := sim.NewEngine()
			n := 0
			fn := func() { n++ }
			for j := 0; j < 1000; j++ {
				if err := e.Schedule(float64(j), fn); err != nil {
					tb.Fatal(err)
				}
			}
			e.Run(2000)
			if n != 1000 {
				tb.Fatal("events lost")
			}
		}
	}},
}

func paperLib(tb testing.TB) *Library {
	tb.Helper()
	lib, err := experiments.Lib(experiments.Pairs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return lib
}

func mustPlan(tb testing.TB, spec string) *FaultPlan {
	tb.Helper()
	plan, err := ParseFaultPlan(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// edgeOp serves Scenario 2 under a fresh AdaFlow controller with run.
func edgeOp(tb testing.TB, run func(Scenario, Controller, SimConfig, ...RunOption) (*Result, error), cfg SimConfig) func(int) {
	lib := paperLib(tb)
	return func(i int) {
		mgr, err := NewRuntimeManager(lib, DefaultManagerConfig())
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Seed = int64(i)
		if _, err := run(edge.Scenario2(), NewAdaFlowController(mgr), cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// poolOp serves the hybrid scenario on a fresh supervised pool.
func poolOp(tb testing.TB, cfg PoolConfig, plan *FaultPlan) func(int) {
	lib := paperLib(tb)
	cfg.Manager = DefaultManagerConfig()
	return func(i int) {
		pool, err := NewSupervisedPool(lib, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := RunEdge(edge.Scenario12(), pool, SimConfig{
			Seed:        int64(i),
			FaultConfig: FaultConfig{Plan: plan, Seed: 1},
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

// clusterOp runs the default 1000 streams on a fresh 8-pool scheduler.
func clusterOp(tb testing.TB, plan *FaultPlan, faultPools []int) func(int) {
	lib := paperLib(tb)
	return func(i int) {
		sch, err := NewClusterScheduler(lib, DefaultStreams(1000), ClusterConfig{
			Pools: 8, Seed: int64(i + 1),
			FaultPlan: plan, FaultPools: faultPools, FaultSeed: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := sch.Run(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestHotPathAllocs gates every serving hot path on an exact allocation
// ceiling. The counts do not depend on the machine: AllocsPerRun pins
// GOMAXPROCS to 1 and the test pins every worker-pool cap to 2, so the
// pools' fan-outs start the same goroutines everywhere.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	SetParallelism(2)
	defer SetParallelism(0)
	for _, hp := range hotPaths {
		t.Run(hp.bench+"/"+hp.name, func(t *testing.T) {
			op := hp.setup(t)
			i := 0
			got := testing.AllocsPerRun(5, func() { op(i); i++ })
			if got > hp.maxAllocs {
				t.Errorf("%v allocs/op, ceiling %v", got, hp.maxAllocs)
			}
		})
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// benchHotPaths runs bench's hot-path cases as sub-benchmarks.
func benchHotPaths(b *testing.B, bench string) {
	for _, hp := range hotPaths {
		if hp.bench != bench {
			continue
		}
		b.Run(hp.name, func(b *testing.B) {
			op := hp.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}

// BenchmarkRunEdge measures the single-board serving hot path, fluid,
// event-level and adaptive (see hotPaths).
func BenchmarkRunEdge(b *testing.B) { benchHotPaths(b, "RunEdge") }

// BenchmarkPoolRun measures the supervised multi-board pool (see hotPaths).
func BenchmarkPoolRun(b *testing.B) { benchHotPaths(b, "PoolRun") }

// BenchmarkClusterRun measures the fleet scheduler end to end (see
// hotPaths).
func BenchmarkClusterRun(b *testing.B) { benchHotPaths(b, "ClusterRun") }

// BenchmarkDESKernel measures raw event throughput of the simulation
// kernel's calendar queue (see hotPaths).
func BenchmarkDESKernel(b *testing.B) { benchHotPaths(b, "DESKernel") }
