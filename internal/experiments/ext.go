package experiments

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/finn"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/multiedge"
	"repro/internal/prune"
	"repro/internal/singleengine"
	"repro/internal/synth"
)

// ExtChurnResult is an extension experiment beyond the paper's result set:
// AdaFlow vs static FINN under device churn ("variable number of connected
// nodes", which §I motivates but §VI does not evaluate).
type ExtChurnResult struct {
	Pair    Pair
	AdaFlow metrics.RunStats
	FINN    metrics.RunStats
	Runs    int
}

// ExtChurn runs the device-churn scenario.
func ExtChurn(runs int, seed int64) (*ExtChurnResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: churn needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	scn := edge.ScenarioChurn()
	ada, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		mgr, err := manager.New(lib, manager.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return edge.NewAdaFlow(mgr), nil
	}, runs, seed, edge.SimConfig{})
	if err != nil {
		return nil, err
	}
	fn, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		return edge.NewStaticFINN(lib), nil
	}, runs, seed, edge.SimConfig{})
	if err != nil {
		return nil, err
	}
	return &ExtChurnResult{Pair: p, AdaFlow: ada, FINN: fn, Runs: runs}, nil
}

// ExtPoolRow is one pool size of the multi-FPGA scaling study.
type ExtPoolRow struct {
	Boards       int
	Devices      int
	FrameLossPct float64
	QoEPct       float64
	AvgPowerW    float64
	PowerEff     float64
	Switches     int
	Reconfigs    int
}

// ExtPoolResult is the multi-FPGA extension experiment: pools of 1–4
// boards under proportionally scaled workloads (the direction of the
// authors' multi-FPGA follow-up, the paper's reference [3]).
type ExtPoolResult struct {
	Pair Pair
	Rows []ExtPoolRow
}

// ExtPoolScaling runs the scaling study on the unpredictable scenario.
func ExtPoolScaling(runs int, seed int64) (*ExtPoolResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: pool scaling needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	res := &ExtPoolResult{Pair: p}
	for _, boards := range []int{1, 2, 3, 4} {
		scn := edge.Scenario2()
		scn.Devices *= boards // keep per-board load constant
		mean, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
			return multiedge.NewSupervisedPool(lib, multiedge.Config{Boards: boards, Manager: manager.DefaultConfig()})
		}, runs, seed, edge.SimConfig{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtPoolRow{
			Boards: boards, Devices: scn.Devices,
			FrameLossPct: mean.FrameLossPct, QoEPct: mean.QoEPct,
			AvgPowerW: mean.AvgPowerW, PowerEff: mean.PowerEff,
			Switches: mean.Switches, Reconfigs: mean.Reconfigs,
		})
	}
	return res, nil
}

// WriteText renders the scaling study.
func (r *ExtPoolResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Extension: multi-FPGA pool scaling — %s, scenario 2, per-board load held constant\n", r.Pair)
	fmt.Fprintf(w, "%-8s %-9s %-8s %-8s %-9s %-10s %-9s %-9s\n",
		"boards", "devices", "loss%", "QoE%", "power W", "inf/J", "switches", "reconfigs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-9d %-8.2f %-8.2f %-9.3f %-10.1f %-9d %-9d\n",
			row.Boards, row.Devices, row.FrameLossPct, row.QoEPct,
			row.AvgPowerW, row.PowerEff, row.Switches, row.Reconfigs)
	}
}

// ExtEngineRow compares the two accelerator families on one metric row.
type ExtEngineRow struct {
	Design string
	FPS    float64
	LUT    int
	BRAM   int
}

// ExtEngineResult backs the paper's §II architectural claim: dataflow
// accelerators out-run single-engine designs of comparable array size,
// paying specialization (per-model synthesis) for throughput.
type ExtEngineResult struct {
	Pair Pair
	Rows []ExtEngineRow
}

// ExtEngineComparison evaluates FINN dataflow vs a single engine with the
// same PE×SIMD array as the dataflow's largest MVTU, and a scaled-up
// engine with the dataflow's *total* lane budget.
func ExtEngineComparison() (*ExtEngineResult, error) {
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	m, err := p.build()
	if err != nil {
		return nil, err
	}
	res := &ExtEngineResult{Pair: p}
	res.Rows = append(res.Rows, ExtEngineRow{
		Design: "FINN dataflow",
		FPS:    lib.BaselineFPS(),
		LUT:    lib.Baseline.Res.LUT,
		BRAM:   lib.Baseline.Res.BRAM,
	})
	for _, cfg := range []singleengine.Config{
		{PE: 8, SIMD: 18},  // per-layer array parity
		{PE: 32, SIMD: 72}, // total lane-count parity
	} {
		eng, err := singleengine.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		fps, err := eng.FramesPerSecond(m)
		if err != nil {
			return nil, err
		}
		r, err := eng.Resources(m)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtEngineRow{Design: eng.Name, FPS: fps, LUT: r.LUT, BRAM: r.BRAM})
	}
	return res, nil
}

// ExtMLPRow is one neuron-pruning design point of a dense-only network.
type ExtMLPRow struct {
	Rate   float64
	Widths []int
	FPS    float64
	LUT    int
}

// ExtMLPResult sweeps §IV-A1's fully-connected ("neurons") pruning over a
// TFC-style MLP — the dense-only counterpart of the CNV sweep (extension:
// the paper evaluates convolutional models only).
type ExtMLPResult struct {
	ModelName string
	Rows      []ExtMLPRow
}

// ExtMLPNeuronPruning runs the sweep.
func ExtMLPNeuronPruning() (*ExtMLPResult, error) {
	m, err := model.TFC("mnist-syn", 10, 1)
	if err != nil {
		return nil, err
	}
	fold := finn.DefaultFolding(m)
	gs, err := fold.DenseGranularity(m)
	if err != nil {
		return nil, err
	}
	res := &ExtMLPResult{ModelName: m.Name}
	for _, rate := range []float64{0, 0.25, 0.5, 0.75} {
		pruned, plan, err := prune.ShrinkDense(m, rate, gs)
		if err != nil {
			return nil, err
		}
		df, err := finn.Map(pruned, finn.DefaultFolding(pruned), finn.Options{})
		if err != nil {
			return nil, err
		}
		acc, err := synth.Synthesize(df, synth.ZCU104)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtMLPRow{
			Rate: rate, Widths: plan.Widths, FPS: df.FPS(), LUT: acc.Res.LUT,
		})
	}
	return res, nil
}

// WriteText renders the MLP sweep.
func (r *ExtMLPResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Extension: fully-connected neuron pruning — %s (dense-only dataflow)\n", r.ModelName)
	fmt.Fprintf(w, "%-6s %-16s %-10s %-8s\n", "rate", "hidden widths", "FPS", "LUT")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6.2f %-16s %-10.1f %-8d\n", row.Rate, fmt.Sprint(row.Widths), row.FPS, row.LUT)
	}
}

// WriteText renders the architecture comparison.
func (r *ExtEngineResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Extension: dataflow vs single-engine accelerators — %s (paper §II)\n", r.Pair)
	fmt.Fprintf(w, "%-24s %-9s %-9s %-6s\n", "design", "FPS", "LUT", "BRAM")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %-9.1f %-9d %-6d\n", row.Design, row.FPS, row.LUT, row.BRAM)
	}
}

// WriteText renders the comparison.
func (r *ExtChurnResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Extension: device churn (8–32 cameras joining/leaving) — %s, avg of %d runs\n", r.Pair, r.Runs)
	fmt.Fprintf(w, "%-10s %-8s %-8s %-9s %-10s\n", "server", "loss%", "QoE%", "power W", "inf/J")
	fmt.Fprintf(w, "%-10s %-8.2f %-8.2f %-9.3f %-10.1f\n", "AdaFlow",
		r.AdaFlow.FrameLossPct, r.AdaFlow.QoEPct, r.AdaFlow.AvgPowerW, r.AdaFlow.PowerEff)
	fmt.Fprintf(w, "%-10s %-8.2f %-8.2f %-9.3f %-10.1f\n", "FINN",
		r.FINN.FrameLossPct, r.FINN.QoEPct, r.FINN.AvgPowerW, r.FINN.PowerEff)
}
