package edge

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/accuracy"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/synth"
)

func paperLib(t testing.TB) *library.Library {
	t.Helper()
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Generate(m, library.Config{Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func adaflow(t testing.TB, lib *library.Library) Controller {
	t.Helper()
	mgr, err := manager.New(lib, manager.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewAdaFlow(mgr)
}

func TestScenarioValidate(t *testing.T) {
	for _, s := range []Scenario{Scenario1(), Scenario2(), Scenario12()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if rate := float64(s.Devices) * s.PerDeviceFPS; rate != 600 {
			t.Errorf("%s base rate = %v", s.Name, rate)
		}
	}
	bad := Scenario1()
	bad.Phases[0].Start = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("phase not starting at 0 accepted")
	}
	bad2 := Scenario1()
	bad2.Phases[0].Interval = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestWorkloadBounds(t *testing.T) {
	scn := Scenario2()
	rng := newTestRNG()
	wl, err := NewWorkload(scn, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := wl.Redraw(float64(i) * 0.5)
		if r < 600*0.29 || r > 600*1.71 {
			t.Fatalf("rate %v outside ±70%% band", r)
		}
	}
}

func TestWorkloadNextBoundary(t *testing.T) {
	scn := Scenario12()
	wl, err := NewWorkload(scn, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	if nb := wl.NextBoundary(0); nb != 5 {
		t.Fatalf("boundary after 0 = %v, want 5", nb)
	}
	if nb := wl.NextBoundary(12); nb != 15 {
		t.Fatalf("boundary after 12 = %v, want 15 (phase change)", nb)
	}
	if nb := wl.NextBoundary(15); nb != 15.5 {
		t.Fatalf("boundary after 15 = %v, want 15.5", nb)
	}
}

// TestFrameConservation: arrived = processed + dropped + residual queue,
// so processed + dropped never exceeds arrived.
func TestFrameConservation(t *testing.T) {
	lib := paperLib(t)
	r, err := Run(Scenario2(), NewStaticFINN(lib), SimConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Processed+r.Dropped > r.Arrived+1e-6 {
		t.Fatalf("conservation violated: %v + %v > %v", r.Processed, r.Dropped, r.Arrived)
	}
	slack := r.Arrived - r.Processed - r.Dropped
	if slack < -1e-6 || slack > 16+1e-6 {
		t.Fatalf("residual queue %v outside [0, queue cap]", slack)
	}
}

// TestBaselineFINNLossNearPaper pins the Scenario 1 baseline: the paper
// reports ≈23 % frame loss for static FINN.
func TestBaselineFINNLossNearPaper(t *testing.T) {
	lib := paperLib(t)
	mean, _, err := RunRepeated(Scenario1(), func() (Controller, error) {
		return NewStaticFINN(lib), nil
	}, 20, 1, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mean.FrameLossPct < 10 || mean.FrameLossPct > 32 {
		t.Fatalf("FINN scenario-1 loss = %.1f%%, want ≈23%%", mean.FrameLossPct)
	}
	// Baseline accuracy is the unpruned model's.
	if d := mean.AvgAccuracy - lib.BaselineAccuracy(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("baseline accuracy %v != %v", mean.AvgAccuracy, lib.BaselineAccuracy())
	}
}

// TestAdaFlowBeatsFINN pins the headline Table-I shape on both scenarios:
// much lower frame loss, higher QoE, higher power efficiency, accuracy
// within the 10 % threshold.
func TestAdaFlowBeatsFINN(t *testing.T) {
	lib := paperLib(t)
	for _, scn := range []Scenario{Scenario1(), Scenario2()} {
		finn, _, err := RunRepeated(scn, func() (Controller, error) {
			return NewStaticFINN(lib), nil
		}, 10, 1, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ada, _, err := RunRepeated(scn, func() (Controller, error) {
			return adaflow(t, lib), nil
		}, 10, 1, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if ada.FrameLossPct >= finn.FrameLossPct/2 {
			t.Errorf("%s: AdaFlow loss %.1f%% not well below FINN %.1f%%",
				scn.Name, ada.FrameLossPct, finn.FrameLossPct)
		}
		if ada.QoEPct <= finn.QoEPct {
			t.Errorf("%s: AdaFlow QoE %.1f ≤ FINN %.1f", scn.Name, ada.QoEPct, finn.QoEPct)
		}
		if ada.PowerEff <= finn.PowerEff {
			t.Errorf("%s: AdaFlow efficiency %.2f ≤ FINN %.2f", scn.Name, ada.PowerEff, finn.PowerEff)
		}
		drop := lib.BaselineAccuracy() - ada.AvgAccuracy
		if drop > 0.101 {
			t.Errorf("%s: average accuracy drop %.3f exceeds threshold", scn.Name, drop)
		}
		if drop < 0 {
			t.Errorf("%s: accuracy above baseline?", scn.Name)
		}
	}
}

// TestScenario1UsesFixedScenario2UsesFlexible pins the accelerator-family
// behaviour of §VI-B: stable workloads run on Fixed-Pruning (reconfigs
// happen), unpredictable ones on Flexible (switches without reconfigs).
func TestScenario1UsesFixedScenario2UsesFlexible(t *testing.T) {
	lib := paperLib(t)

	r1, err := Run(Scenario1(), adaflow(t, lib), SimConfig{Seed: 7, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Scenario2(), adaflow(t, lib), SimConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Switches == nil {
		t.Fatal("scenario 1 recorded no switch events")
	}
	// Scenario 2 must perform many fast switches with far fewer
	// reconfigurations than switches.
	if r2.RunStats.Switches < 5 {
		t.Fatalf("scenario 2 switches = %d, want many", r2.RunStats.Switches)
	}
	if r2.RunStats.Reconfigs > r2.RunStats.Switches/3 {
		t.Fatalf("scenario 2 reconfigs %d vs switches %d — flexible not used",
			r2.RunStats.Reconfigs, r2.RunStats.Switches)
	}
	// Scenario 1 switches are rare and use reconfigurations (fixed).
	if r1.RunStats.Switches > 10 {
		t.Fatalf("scenario 1 switches = %d, want few", r1.RunStats.Switches)
	}
}

// TestScenario1PowerBelowScenario2 pins the power ordering: fixed-pruning
// serving in stable phases burns less than flexible serving in
// unpredictable ones (Table I: 1.01 W vs 1.2 W).
func TestScenario1PowerBelowScenario2(t *testing.T) {
	lib := paperLib(t)
	m1, _, err := RunRepeated(Scenario1(), func() (Controller, error) {
		return adaflow(t, lib), nil
	}, 10, 3, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := RunRepeated(Scenario2(), func() (Controller, error) {
		return adaflow(t, lib), nil
	}, 10, 3, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.AvgPowerW >= m2.AvgPowerW {
		t.Fatalf("scenario1 power %.3f ≥ scenario2 %.3f", m1.AvgPowerW, m2.AvgPowerW)
	}
}

// TestReconfControllerOrdering pins Fig. 1(b): slower reconfiguration times
// lose more frames, and very slow reconfiguration is worse than never
// switching at all.
func TestReconfControllerOrdering(t *testing.T) {
	lib := paperLib(t)
	loss := func(rt time.Duration) float64 {
		mean, _, err := RunRepeated(Scenario2(), func() (Controller, error) {
			return NewPruningReconf(lib, 0.10, rt)
		}, 10, 5, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return mean.FrameLossPct
	}
	ideal := loss(0)
	mid := loss(145 * time.Millisecond)
	slow := loss(500 * time.Millisecond)
	if !(ideal <= mid && mid <= slow) {
		t.Fatalf("loss not monotone in reconfig time: %v / %v / %v", ideal, mid, slow)
	}
	finn, _, err := RunRepeated(Scenario2(), func() (Controller, error) {
		return NewStaticFINN(lib), nil
	}, 10, 5, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if slow <= finn.FrameLossPct {
		t.Fatalf("very slow reconfiguration (%.1f%%) should lose more than static FINN (%.1f%%)",
			slow, finn.FrameLossPct)
	}
	if ideal >= finn.FrameLossPct {
		t.Fatalf("ideal switching (%.1f%%) should beat static FINN (%.1f%%)", ideal, finn.FrameLossPct)
	}
}

func TestRunValidation(t *testing.T) {
	lib := paperLib(t)
	if _, err := Run(Scenario1(), nil, SimConfig{}); err == nil {
		t.Fatal("nil controller accepted")
	}
	if _, _, err := RunRepeated(Scenario1(), func() (Controller, error) {
		return NewStaticFINN(lib), nil
	}, 0, 1, SimConfig{}); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := NewPruningReconf(nil, 0.1, 0); err == nil {
		t.Fatal("nil library accepted")
	}
	for _, thr := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewPruningReconf(lib, thr, 0); err == nil {
			t.Fatalf("threshold %v accepted", thr)
		}
	}
	if _, err := NewPruningReconf(lib, 0.1, -time.Second); err == nil {
		t.Fatal("negative reconfig accepted")
	}
}

func TestTraceRecorded(t *testing.T) {
	lib := paperLib(t)
	r, err := Run(Scenario12(), adaflow(t, lib), SimConfig{Seed: 2, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != 2500 {
		t.Fatalf("trace points = %d, want 2500 (25 s at 10 ms)", len(r.Trace))
	}
	last := r.Trace[len(r.Trace)-1]
	if last.Time < 24.9 {
		t.Fatalf("trace ends at %v", last.Time)
	}
	if last.LossPct < 0 || last.LossPct > 100 || last.QoEPct < 0 || last.QoEPct > 100 {
		t.Fatalf("trace bounds: %+v", last)
	}
}

func newTestRNG() *rand.Rand { return sim.RNG(42, "edge-test") }

// TestEventLevelValidatesFluidModel: the per-frame DES and the fluid
// accounting must agree on the headline metrics for both controllers.
func TestEventLevelValidatesFluidModel(t *testing.T) {
	lib := paperLib(t)
	for _, tc := range []struct {
		name string
		mk   func() (Controller, error)
	}{
		{"finn", func() (Controller, error) { return NewStaticFINN(lib), nil }},
		{"adaflow", func() (Controller, error) { return adaflow(t, lib), nil }},
	} {
		fluid, _, err := RunRepeated(Scenario2(), tc.mk, 5, 100, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		event, _, err := RunRepeated(Scenario2(), tc.mk, 5, 100, SimConfig{EventLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		if d := fluid.FrameLossPct - event.FrameLossPct; d > 4 || d < -4 {
			t.Errorf("%s: loss disagreement fluid %.2f%% vs event %.2f%%", tc.name, fluid.FrameLossPct, event.FrameLossPct)
		}
		if d := fluid.QoEPct - event.QoEPct; d > 4 || d < -4 {
			t.Errorf("%s: QoE disagreement fluid %.2f vs event %.2f", tc.name, fluid.QoEPct, event.QoEPct)
		}
	}
}

// TestEventLevelLatencyExact: the event-level run reports true per-frame
// latency: bounded below by the pure service time and above by queue cap /
// service rate plus service time.
func TestEventLevelLatencyExact(t *testing.T) {
	lib := paperLib(t)
	r, err := Run(Scenario1(), NewStaticFINN(lib), SimConfig{Seed: 9, EventLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	svcMS := 1000 / lib.BaselineFPS()
	if r.AvgLatencyMS < svcMS {
		t.Fatalf("latency %.3f ms below service time %.3f", r.AvgLatencyMS, svcMS)
	}
	maxMS := (16 + 1) * svcMS
	if r.AvgLatencyMS > maxMS {
		t.Fatalf("latency %.3f ms above bound %.3f", r.AvgLatencyMS, maxMS)
	}
}

// TestEventLevelConservation: every arrived frame is processed, dropped,
// or still in flight at the end.
func TestEventLevelConservation(t *testing.T) {
	lib := paperLib(t)
	r, err := Run(Scenario2(), NewStaticFINN(lib), SimConfig{Seed: 3, EventLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	slack := r.Arrived - r.Processed - r.Dropped
	if slack < 0 || slack > 17 { // queue cap + one in service
		t.Fatalf("conservation slack %v", slack)
	}
}

// TestQoEBounds: QoE is the product of accuracy and processed fraction,
// so it can never exceed either factor.
func TestQoEBounds(t *testing.T) {
	lib := paperLib(t)
	for seed := int64(0); seed < 5; seed++ {
		for _, mk := range []func() Controller{
			func() Controller { return NewStaticFINN(lib) },
			func() Controller { return adaflow(t, lib) },
		} {
			r, err := Run(Scenario2(), mk(), SimConfig{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if r.QoEPct > r.AvgAccuracy*100+1e-9 {
				t.Fatalf("QoE %.2f exceeds accuracy %.2f", r.QoEPct, r.AvgAccuracy*100)
			}
			processedPct := 100 * r.Processed / r.Arrived
			if r.QoEPct > processedPct+1e-9 {
				t.Fatalf("QoE %.2f exceeds processed fraction %.2f", r.QoEPct, processedPct)
			}
			if r.FrameLossPct < 0 || r.FrameLossPct > 100 {
				t.Fatalf("loss %.2f out of range", r.FrameLossPct)
			}
		}
	}
}

// TestZeroCapacityServing: a serving configuration with zero FPS drops
// everything beyond the queue and never panics (failure injection).
func TestZeroCapacityServing(t *testing.T) {
	dead := &StaticController{S: Serving{
		FPS: 0, Accuracy: 0.9,
		Power:     synth.PowerCurve{IdleW: 0.5},
		IdlePower: 0.5, Label: "dead",
	}}
	r, err := Run(Scenario1(), dead, SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.FrameLossPct < 99 {
		t.Fatalf("dead server lost only %.2f%%", r.FrameLossPct)
	}
	if r.Processed != 0 {
		t.Fatalf("dead server processed %v frames", r.Processed)
	}
	re, err := Run(Scenario1(), dead, SimConfig{Seed: 1, EventLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Processed != 0 {
		t.Fatalf("event-level dead server processed %v frames", re.Processed)
	}
}

// TestPoissonArrivalsBurstier: exponential inter-arrival gaps produce at
// least as much frame loss as deterministic spacing at the same mean rate
// (burstiness can only hurt a finite queue).
func TestPoissonArrivalsBurstier(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) { return NewStaticFINN(lib), nil }
	det, _, err := RunRepeated(Scenario1(), mk, 5, 0, SimConfig{EventLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	poi, _, err := RunRepeated(Scenario1(), mk, 5, 0, SimConfig{EventLevel: true, PoissonArrivals: true})
	if err != nil {
		t.Fatal(err)
	}
	if poi.FrameLossPct < det.FrameLossPct-1 {
		t.Fatalf("poisson loss %.2f%% well below deterministic %.2f%%", poi.FrameLossPct, det.FrameLossPct)
	}
}

// TestSchedulingErrorReported: a run keeps the first scheduling failure
// to report it, instead of panicking inside the event loop.
func TestSchedulingErrorReported(t *testing.T) {
	r := &run{eng: sim.NewEngine()}
	r.eng.Run(5)
	r.at(6, func() {})
	if r.err != nil {
		t.Fatalf("forward schedule failed: %v", r.err)
	}
	r.at(1, func() {})
	first := r.err
	r.at(2, func() {})
	if first == nil || r.err != first {
		t.Fatalf("scheduling in the past: err %v, want the first failure kept", r.err)
	}
}

func TestEventLevelValidation(t *testing.T) {
	if _, err := Run(Scenario1(), nil, SimConfig{EventLevel: true}); err == nil {
		t.Fatal("nil controller accepted")
	}
}

// TestRuntimeThresholdChange: loosening the user accuracy threshold
// mid-run unlocks faster pruned versions — frame loss collapses in the
// second half of an overloaded run.
func TestRuntimeThresholdChange(t *testing.T) {
	lib := paperLib(t)
	scn := Scenario1()
	scn.Devices = 40 // 1200 FPS mean: above the 10%-threshold versions
	mgr, err := manager.New(lib, manager.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log decisionLog
	res, err := Run(scn, NewAdaFlow(mgr), SimConfig{
		Seed:             3,
		RecordTrace:      true,
		ThresholdChanges: []ThresholdChange{{Time: 12.5, Threshold: 0.50}},
	}, WithTracer(obs.New(&log)))
	if err != nil {
		t.Fatal(err)
	}
	var first, second float64
	var nf, ns int
	for _, p := range res.Trace {
		if p.Time < 12.5 {
			first += p.InstLossPct
			nf++
		} else if p.Time > 13 {
			second += p.InstLossPct
			ns++
		}
	}
	first /= float64(nf)
	second /= float64(ns)
	if second >= first/2 {
		t.Fatalf("loosened threshold did not help: loss %.2f%% → %.2f%%", first, second)
	}
	if mgr.AccuracyThreshold() != 0.50 {
		t.Fatal("threshold not applied")
	}
	if len(log) == 0 || log[len(log)-1].Time < 12.5 {
		t.Fatal("no decision logged after the threshold change")
	}
	// The event-level mode shares the run skeleton, threshold events
	// included.
	mgr, err = manager.New(lib, manager.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(scn, NewAdaFlow(mgr), SimConfig{
		Seed:             3,
		EventLevel:       true,
		ThresholdChanges: []ThresholdChange{{Time: 12.5, Threshold: 0.50}},
	}); err != nil {
		t.Fatal(err)
	}
	if mgr.AccuracyThreshold() != 0.50 {
		t.Fatal("threshold not applied in the event-level mode")
	}
	// Invalid schedules are rejected.
	if _, err := Run(scn, NewAdaFlow(mgr), SimConfig{
		ThresholdChanges: []ThresholdChange{{Time: 99, Threshold: 0.5}},
	}); err == nil {
		t.Fatal("out-of-run threshold change accepted")
	}
	if _, err := Run(scn, NewStaticFINN(lib), SimConfig{
		ThresholdChanges: []ThresholdChange{{Time: 5, Threshold: 0.5}},
	}); err == nil {
		t.Fatal("threshold change on static controller accepted")
	}
}

func TestChurnValidation(t *testing.T) {
	s := ScenarioChurn()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ScenarioChurn()
	bad.Churn.MinDevices = 25 // initial 20 outside range
	if err := bad.Validate(); err == nil {
		t.Fatal("initial devices outside churn range accepted")
	}
	bad2 := ScenarioChurn()
	bad2.Churn.MaxStep = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero churn step accepted")
	}
	bad3 := ScenarioChurn()
	bad3.Churn.Interval = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero churn interval accepted")
	}
}

// TestChurnVariesDevices: under churn the device count moves within its
// clamp range and the workload tracks it.
func TestChurnVariesDevices(t *testing.T) {
	scn := ScenarioChurn()
	wl, err := NewWorkload(scn, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for tt := 0.0; tt < 25; tt = wl.NextBoundary(tt) {
		wl.Redraw(tt)
		d := wl.devices
		if d < scn.Churn.MinDevices || d > scn.Churn.MaxDevices {
			t.Fatalf("devices %d outside [%d,%d]", d, scn.Churn.MinDevices, scn.Churn.MaxDevices)
		}
		seen[d] = true
		maxRate := float64(d) * scn.PerDeviceFPS * (1 + scn.Phases[0].Deviation)
		if wl.Rate() > maxRate+1e-9 {
			t.Fatalf("rate %v exceeds %v for %d devices", wl.Rate(), maxRate, d)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("device count barely moved: %v", seen)
	}
}

// TestAdaFlowHandlesChurn: the extension scenario still favours AdaFlow.
func TestAdaFlowHandlesChurn(t *testing.T) {
	lib := paperLib(t)
	scn := ScenarioChurn()
	finn, _, err := RunRepeated(scn, func() (Controller, error) {
		return NewStaticFINN(lib), nil
	}, 10, 1, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ada, _, err := RunRepeated(scn, func() (Controller, error) {
		return adaflow(t, lib), nil
	}, 10, 1, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ada.FrameLossPct >= finn.FrameLossPct {
		t.Fatalf("churn: AdaFlow loss %.1f%% ≥ FINN %.1f%%", ada.FrameLossPct, finn.FrameLossPct)
	}
	if ada.QoEPct <= finn.QoEPct {
		t.Fatalf("churn: AdaFlow QoE %.1f ≤ FINN %.1f", ada.QoEPct, finn.QoEPct)
	}
}

// TestServingPowerMatchesSynth checks that the power curves serving reads
// from the library reproduce the synthesized accelerators' own power
// model bit for bit: the fixed curve against Fixed's power curve, and the
// flexible curve against the flexible accelerator reconfigured to the
// entry's channels, at negative, zero, in-range, capacity, beyond-capacity
// and non-finite rates.
func TestServingPowerMatchesSynth(t *testing.T) {
	lib := paperLib(t)
	flexDF := lib.Flexible.Dataflow
	static := NewStaticFINN(lib).S
	for i := range lib.Entries {
		e := &lib.Entries[i]
		fixed := DecisionServing(lib, manager.Decision{Entry: i, Kind: manager.Fixed})
		flex := DecisionServing(lib, manager.Decision{Entry: i, Kind: manager.Flexible})
		if err := flexDF.SetChannels(e.Channels); err != nil {
			t.Fatal(err)
		}
		if fixed.IdlePower != e.Fixed.IdlePower() || flex.IdlePower != lib.Flexible.IdlePower() {
			t.Fatalf("rate %v: idle power %v/%v, synthesized %v/%v", e.NominalRate,
				fixed.IdlePower, flex.IdlePower, e.Fixed.IdlePower(), lib.Flexible.IdlePower())
		}
		check := func(name string, got func(float64) float64, want func(float64) float64, cap float64) {
			t.Helper()
			for _, fps := range []float64{-1, math.Copysign(0, -1), 0, 1, cap / 3, cap,
				math.Nextafter(cap, math.Inf(1)), 2 * cap, math.Inf(1), math.NaN()} {
				if g, w := got(fps), want(fps); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("rate %v: %s power at %v fps = %v, synthesized %v", e.NominalRate, name, fps, g, w)
				}
			}
		}
		check("fixed", fixed.PowerAt, synthPower(e.Fixed), e.Fixed.Dataflow.FPS())
		check("flexible", flex.PowerAt, synthPower(lib.Flexible), flexDF.FPS())
		if i == 0 {
			check("static FINN", static.PowerAt, synthPower(e.Fixed), e.Fixed.Dataflow.FPS())
		}
	}
}

// synthPower is the synthesized accelerator's total power at a processed
// frame rate: its power curve at its current channel configuration.
func synthPower(a *synth.Accelerator) func(float64) float64 {
	return func(fps float64) float64 {
		c := a.Curve()
		return c.At(fps)
	}
}
