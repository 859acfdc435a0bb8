// Package library implements AdaFlow's design-time Library Generator
// (paper §IV-B1): it sweeps the dataflow-aware pruning rate over an
// initial CNN model, gathers the pruned versions' accuracy and throughput,
// and synthesizes the accelerators the Runtime Manager chooses among —
// one Fixed-Pruning accelerator per pruned model and a single
// Flexible-Pruning accelerator per initial model.
//
// Generation is a three-stage pipeline. Stage 1 prunes and evaluates each
// rate independently (building pruned weights only when the evaluator or
// Config.KeepModels reads them), fanned across Config.Workers
// goroutines with indexed result slots. Stage 2 maps and synthesizes one
// fixed accelerator per *distinct* channel configuration — dataflow
// constraints round several small rates to the same shape, so duplicate
// rates reuse the memoized synthesis — and measures the flexible
// accelerator's power curve at those channels under a mutex. Stage 3
// assembles the entries in rate order. Every per-entry value is a pure function of the
// entry's inputs and the memo is consulted identically at any worker
// count, so the output is bit-identical regardless of parallelism.
package library

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/accuracy"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/prune"
	"repro/internal/synth"
)

// Entry is one row of the library table: a pruned CNN model version with
// its measured profile.
type Entry struct {
	// NominalRate is the requested pruning rate; EffectiveRate is what the
	// dataflow constraints allowed.
	NominalRate   float64
	EffectiveRate float64
	// Channels is the per-convolution out-channel count of this version
	// (what a Flexible accelerator's runtime ports are set to).
	Channels []int
	// Accuracy is TOP-1 in [0,1].
	Accuracy float64
	// FixedFPS / FlexFPS are throughputs on the Fixed accelerator and on
	// the Flexible accelerator configured to this version.
	FixedFPS float64
	FlexFPS  float64
	// FixedPower and FlexPower are the power curves of the Fixed
	// accelerator and of the Flexible one configured to this version's
	// channels. Serving reads power from them, so it never walks a
	// dataflow or reconfigures the shared flexible one (which would be a
	// data race across concurrent simulations).
	FixedPower synth.PowerCurve
	FlexPower  synth.PowerCurve
	// FlexEnergyPerInfJ is FlexPower.EnergyPerInfJ, the flexible
	// accelerator's dynamic energy per inference at this version's
	// channels in joules (the library digest of bench/ reads this field).
	FlexEnergyPerInfJ float64
	// Fixed is the synthesized Fixed-Pruning accelerator for this version.
	// Entries whose constraints rounded to the same channel configuration
	// share one accelerator.
	Fixed *synth.Accelerator
	// Model is the pruned model with its weights when Config.KeepModels
	// was set, and nil otherwise.
	Model *model.Model
}

// GenStats records how a Generate call ran (diagnostics; not serialized).
type GenStats struct {
	// Workers is the resolved worker count.
	Workers int
	// Wall is the end-to-end generation time.
	Wall time.Duration
	// DistinctSynth counts distinct channel configurations that were
	// actually mapped and synthesized; SynthReused counts rate entries
	// served from the memo instead.
	DistinctSynth int
	SynthReused   int
}

// Library is the generated table plus the shared Flexible accelerator.
type Library struct {
	ModelName string
	Dataset   string
	Entries   []Entry // ascending nominal rate; Entries[0] is unpruned
	// Flexible is the one runtime-controllable accelerator synthesized to
	// the initial model's worst-case channels.
	Flexible *synth.Accelerator
	// Baseline is the original FINN accelerator (identical to
	// Entries[0].Fixed; kept for readability at call sites).
	Baseline *synth.Accelerator
	// ReconfigTime is the FPGA reconfiguration cost for switching Fixed
	// accelerators.
	ReconfigTime time.Duration
	// FlexSwitchTime is the fast model-switch cost on the Flexible
	// accelerator (runtime channel-port writes plus weight reload).
	FlexSwitchTime time.Duration
	// Stats describes the generation run that produced this library.
	Stats GenStats
	// Version numbers the library across runtime hot-swaps: Generate
	// produces version 0, and each retrained candidate the closed
	// adaptation loop (internal/adapt) installs bumps it by one. Serving
	// components treat a *Library as immutable once published — a swap
	// replaces the pointer, never the entries behind it.
	Version int
}

// Config parameterizes library generation.
type Config struct {
	// Rates are the nominal pruning rates; nil uses the paper's sweep,
	// 0–85 % in 5 % steps (18 models).
	Rates []float64
	// Evaluator measures each pruned version's accuracy. Required.
	Evaluator accuracy.Evaluator
	// Device defaults to synth.ZCU104.
	Device *synth.Device
	// ClockHz defaults to finn.DefaultClockHz.
	ClockHz float64
	// KeepModels retains each pruned model, with its weights, in
	// Entry.Model (memory-heavy for paper-scale models; tests and examples
	// with tiny models set it). Without it, and with an Evaluator that
	// implements accuracy.ChannelEvaluator (Calibrated), Generate never
	// builds pruned weights at all: mapping, synthesis and the evaluator
	// read only the pruned shapes.
	KeepModels bool
	// FlexSwitchTime defaults to 1 ms.
	FlexSwitchTime time.Duration
	// Workers bounds the concurrency of the rate sweep: n spreads the
	// per-rate work over n goroutines; <= 0 falls back to DefaultWorkers()
	// (serial unless raised via adaflow.SetParallelism). The library
	// produced is bit-identical for every value.
	Workers int
}

// PaperRates returns the paper's sweep: 0 to 0.85 in 0.05 steps.
func PaperRates() []float64 {
	var rs []float64
	for r := 0.0; r < 0.851; r += 0.05 {
		rs = append(rs, float64(int(r*100+0.5))/100)
	}
	return rs
}

// channelsKey is the memo key for a pruned shape.
func channelsKey(ch []int) string {
	var b strings.Builder
	b.Grow(4 * len(ch))
	for _, c := range ch {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	return b.String()
}

// Generate builds the library from an initial model.
func Generate(initial *model.Model, cfg Config) (*Library, error) {
	start := time.Now()
	if cfg.Evaluator == nil {
		return nil, fmt.Errorf("library: Config.Evaluator is required")
	}
	rates := PaperRates()
	if cfg.Rates != nil {
		if len(cfg.Rates) == 0 {
			return nil, fmt.Errorf("library: empty rate sweep")
		}
		// Sort a copy: the slice belongs to the caller.
		rates = append([]float64(nil), cfg.Rates...)
		sort.Float64s(rates)
	}
	if rates[0] != 0 {
		rates = append([]float64{0}, rates...)
	}
	dev := synth.ZCU104
	if cfg.Device != nil {
		dev = *cfg.Device
	}
	flexSwitch := cfg.FlexSwitchTime
	if flexSwitch == 0 {
		flexSwitch = time.Millisecond
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}

	fold := finn.DefaultFolding(initial)
	gran, err := fold.ChannelGranularity(initial)
	if err != nil {
		return nil, err
	}

	lib := &Library{
		ModelName:      initial.Name,
		Dataset:        initial.Dataset,
		ReconfigTime:   dev.ReconfigTime(),
		FlexSwitchTime: flexSwitch,
	}

	// One Flexible-Pruning accelerator per initial model (paper: four
	// flexible accelerators, one per dataset/CNN).
	flexDF, err := finn.Map(initial, fold, finn.Options{Flexible: true, ClockHz: cfg.ClockHz})
	if err != nil {
		return nil, err
	}
	lib.Flexible, err = synth.Synthesize(flexDF, dev)
	if err != nil {
		return nil, err
	}

	// Stage 1: prune and evaluate every rate. The filters are ranked once
	// and every rate plans from that ranking. Pruned weights are gathered
	// only when something reads them: an evaluator that is not a
	// channel-count evaluator, or KeepModels. Otherwise each rate builds
	// the shape-only model (prune.ApplyShape), which is all mapping and
	// synthesis read, and which never leaves Generate. Each model is built
	// fresh from the initial one and the evaluator only reads its own
	// copy, so rates are independent; results land in indexed slots.
	type pruned struct {
		model *model.Model
		plan  *prune.Plan
		acc   float64
	}
	chEval, ok := cfg.Evaluator.(accuracy.ChannelEvaluator)
	shapeOnly := ok && !cfg.KeepModels
	apply := prune.Apply
	if shapeOnly {
		apply = prune.ApplyShape
	}
	rank := prune.RankFilters(initial)
	stage1 := make([]pruned, len(rates))
	err = parallel.ForEachErr(len(rates), workers, func(i int) error {
		plan, err := rank.Plan(rates[i], gran)
		if err != nil {
			return fmt.Errorf("library: rate %v: %w", rates[i], err)
		}
		m, err := apply(initial, plan)
		if err != nil {
			return fmt.Errorf("library: rate %v: %w", rates[i], err)
		}
		var acc float64
		if shapeOnly {
			acc, err = chEval.AccuracyOfChannels(m.BaseChannels, m.ConvChannels())
		} else {
			acc, err = cfg.Evaluator.Accuracy(m)
		}
		if err != nil {
			return fmt.Errorf("library: rate %v: %w", rates[i], err)
		}
		stage1[i] = pruned{model: m, plan: plan, acc: acc}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: map and synthesize one fixed accelerator per distinct
	// channel configuration (first occurrence in rate order owns it), and
	// tabulate both power curves: the fixed accelerator's, and the flexible
	// accelerator's configured to those channels. The flexible dataflow is
	// shared, so each configure-measure-restore is atomic under a mutex; every measurement is a pure function of the
	// channels, so lock order cannot change results.
	type synthed struct {
		fixed                 *synth.Accelerator
		fixedPower, flexPower synth.PowerCurve
	}
	owner := map[string]int{} // channelsKey → first rate index
	var distinct []int        // first-occurrence rate indices, rate order
	for i := range rates {
		k := channelsKey(stage1[i].plan.Channels)
		if _, ok := owner[k]; !ok {
			owner[k] = i
			distinct = append(distinct, i)
		}
	}
	memo := make([]synthed, len(rates)) // indexed by owner rate
	var flexMu sync.Mutex
	err = parallel.ForEachErr(len(distinct), workers, func(j int) error {
		i := distinct[j]
		m, plan := stage1[i].model, stage1[i].plan
		fixedDF, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{ClockHz: cfg.ClockHz})
		if err != nil {
			return err
		}
		fixedAcc, err := synth.Synthesize(fixedDF, dev)
		if err != nil {
			return err
		}
		flexMu.Lock()
		defer flexMu.Unlock()
		if err := flexDF.SetChannels(plan.Channels); err != nil {
			return fmt.Errorf("library: rate %v violates flexible constraints: %w", rates[i], err)
		}
		flexPower := lib.Flexible.Curve()
		if err := flexDF.SetChannels(flexDF.WorstChannels); err != nil {
			return err
		}
		memo[i] = synthed{fixed: fixedAcc, fixedPower: fixedAcc.Curve(), flexPower: flexPower}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3: assemble rows in rate order from the per-rate results and
	// the per-shape memo.
	lib.Entries = make([]Entry, 0, len(rates))
	for i, rate := range rates {
		s1 := stage1[i]
		sy := memo[owner[channelsKey(s1.plan.Channels)]]
		e := Entry{
			NominalRate:       rate,
			EffectiveRate:     s1.plan.EffectiveRate,
			Channels:          append([]int(nil), s1.plan.Channels...),
			Accuracy:          s1.acc,
			FixedFPS:          sy.fixedPower.CapFPS,
			FlexFPS:           sy.flexPower.CapFPS,
			FixedPower:        sy.fixedPower,
			FlexPower:         sy.flexPower,
			FlexEnergyPerInfJ: sy.flexPower.EnergyPerInfJ,
			Fixed:             sy.fixed,
		}
		if cfg.KeepModels {
			e.Model = s1.model
		}
		lib.Entries = append(lib.Entries, e)
	}
	lib.Baseline = lib.Entries[0].Fixed
	lib.Stats = GenStats{
		Workers:       workers,
		Wall:          time.Since(start),
		DistinctSynth: len(distinct),
		SynthReused:   len(rates) - len(distinct),
	}
	return lib, nil
}

// DistinctVersions returns how many entries have distinct channel
// configurations (duplicates arise when constraints round small rates to
// the same shape).
func (l *Library) DistinctVersions() int {
	seen := map[string]bool{}
	for _, e := range l.Entries {
		seen[channelsKey(e.Channels)] = true
	}
	return len(seen)
}

// BaselineAccuracy returns the unpruned model's accuracy.
func (l *Library) BaselineAccuracy() float64 { return l.Entries[0].Accuracy }

// BaselineFPS returns the unpruned fixed accelerator's throughput.
func (l *Library) BaselineFPS() float64 { return l.Entries[0].FixedFPS }

// Validate checks library invariants: ascending rates, monotone
// non-increasing accuracy, non-decreasing fixed FPS, and a flexible
// accelerator present.
func (l *Library) Validate() error {
	if len(l.Entries) == 0 {
		return fmt.Errorf("library: no entries")
	}
	if l.Flexible == nil {
		return fmt.Errorf("library: missing flexible accelerator")
	}
	for i := 1; i < len(l.Entries); i++ {
		prev, cur := l.Entries[i-1], l.Entries[i]
		if cur.NominalRate < prev.NominalRate {
			return fmt.Errorf("library: rates not ascending at %d", i)
		}
		if cur.Accuracy > prev.Accuracy+1e-9 {
			return fmt.Errorf("library: accuracy increases at rate %v (%v → %v)",
				cur.NominalRate, prev.Accuracy, cur.Accuracy)
		}
		if cur.FixedFPS < prev.FixedFPS-1e-9 {
			return fmt.Errorf("library: fixed FPS decreases at rate %v", cur.NominalRate)
		}
	}
	return nil
}
