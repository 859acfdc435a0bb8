package edge

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// sustainedPlan is the canonical closed-loop chaos: a full-probability
// sustained distribution shift of −0.15 accuracy points from t = 5 s,
// open-ended.
func sustainedPlan(t testing.TB) *fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan("drift-sustained:p=1,start=5,mag=-0.15")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// dropsAccounted checks that every dropped frame carries a cause. Fluid
// mode accounts fractional frames, so the per-cause sums are compared to
// the total within float tolerance.
func dropsAccounted(t *testing.T, s metrics.RunStats) {
	t.Helper()
	got, want := s.Drops.Total(), s.Dropped
	if math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("drop causes %v != dropped %v: a swap shed untagged frames", got, want)
	}
}

// TestAdaptChaosAcceptance is the headline robustness check, in both
// simulation modes: under a sustained shift the adaptive run must win
// back at least half the accuracy the shift costs, the hot swap must not
// shed a single frame (identical arrivals and drop taxonomy to the
// non-adaptive drifted run), and every drop must carry a cause.
func TestAdaptChaosAcceptance(t *testing.T) {
	lib := paperLib(t)
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			clean, err := Run(Scenario2(), adaflow(t, lib), SimConfig{Seed: 1, EventLevel: mode.eventLevel})
			if err != nil {
				t.Fatal(err)
			}
			drifted, err := Run(Scenario2(), adaflow(t, lib), SimConfig{
				Seed:        1,
				EventLevel:  mode.eventLevel,
				FaultConfig: FaultConfig{Plan: sustainedPlan(t), Seed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := Run(Scenario2(), adaflow(t, lib), SimConfig{
				Seed:        1,
				EventLevel:  mode.eventLevel,
				FaultConfig: FaultConfig{Plan: sustainedPlan(t), Seed: 1},
				Adapt:       adapt.Config{Enabled: true},
			})
			if err != nil {
				t.Fatal(err)
			}

			lost := clean.RunStats.AvgAccuracy - drifted.RunStats.AvgAccuracy
			if lost <= 0.01 {
				t.Fatalf("shift cost only %v accuracy points; plan not biting", lost)
			}
			won := adaptive.RunStats.AvgAccuracy - drifted.RunStats.AvgAccuracy
			if won < lost/2 {
				t.Errorf("adaptation recovered %v of %v lost accuracy points, want >= half", won, lost)
			}
			a := adaptive.RunStats.Adapt
			if a.Detections < 1 || a.Retrains < 1 || a.Swaps < 1 {
				t.Errorf("adapt counters too low: %+v", a)
			}
			if a.RecoveredPoints <= 0 {
				t.Errorf("recovered points = %v, want > 0", a.RecoveredPoints)
			}
			// Hot swaps must be invisible to the data plane: same arrivals,
			// same drop taxonomy as the non-adaptive drifted run.
			if adaptive.RunStats.Arrived != drifted.RunStats.Arrived {
				t.Errorf("adaptation changed arrivals: %v vs %v",
					adaptive.RunStats.Arrived, drifted.RunStats.Arrived)
			}
			if adaptive.RunStats.Drops != drifted.RunStats.Drops {
				t.Errorf("adaptation changed the drop taxonomy:\nadaptive %+v\ndrifted  %+v",
					adaptive.RunStats.Drops, drifted.RunStats.Drops)
			}
			dropsAccounted(t, adaptive.RunStats)
			// The disabled path must not drift from the clean baseline.
			cleanAgain, err := Run(Scenario2(), adaflow(t, lib), SimConfig{Seed: 1, EventLevel: mode.eventLevel})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clean.RunStats, cleanAgain.RunStats) {
				t.Error("clean baseline not reproducible")
			}
		})
	}
}

// TestAdaptReplayAcrossWorkers: the adaptive chaos run replays
// bit-identically whether the repeats run serially or across workers —
// the loop's state machine lives in the serial engine loop and draws no
// randomness.
func TestAdaptReplayAcrossWorkers(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) { return adaflow(t, lib), nil }
	cfg := SimConfig{
		FaultConfig: FaultConfig{Plan: sustainedPlan(t), Seed: 1},
		Adapt:       adapt.Config{Enabled: true},
	}
	if mean := repeatedAcrossWorkers(t, Scenario2(), mk, 6, 3, cfg); mean.Adapt.Swaps < 1 {
		t.Fatalf("adaptation never swapped: %+v", mean.Adapt)
	}
}

// TestDriftBoundaryDifferential pins the fluid-vs-event-level boundary
// contract for accuracy drift: a sub-step fault window that no step
// boundary lands in must still perturb both modes (the fluid loop
// matches windows by span overlap, not by sampling the step end), and a
// window aligned to step boundaries perturbs exactly its own steps.
func TestDriftBoundaryDifferential(t *testing.T) {
	lib := paperLib(t)
	sub, err := fault.ParsePlan("accuracy-drift:p=1,start=4.991,end=4.999,mag=-0.1")
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := Run(Scenario2(), adaflow(t, lib), SimConfig{Seed: 1, FaultConfig: FaultConfig{Plan: sub, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fluid.RunStats.Faults.AccuracyDrifts == 0 {
		t.Error("fluid mode stepped over the sub-step window")
	}
	event, err := Run(Scenario2(), adaflow(t, lib), SimConfig{Seed: 1, EventLevel: true, FaultConfig: FaultConfig{Plan: sub, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if event.RunStats.Faults.AccuracyDrifts == 0 {
		t.Error("event-level mode missed the sub-step window")
	}

	// Aligned to the 10 ms accounting grid: [5, 10) covers exactly 500
	// fluid steps, and the window-start boundary belongs to the step that
	// begins there.
	aligned, err := fault.ParsePlan("accuracy-drift:p=1,start=5,end=10,mag=-0.1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario2(), adaflow(t, lib), SimConfig{Seed: 1, FaultConfig: FaultConfig{Plan: aligned, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RunStats.Faults.AccuracyDrifts; got != 500 {
		t.Errorf("aligned window drifted %d steps, want exactly 500", got)
	}
}

// TestAdaptAcrossManagerRollback: sustained drift spanning a
// reconfiguration-failure window — the retrain completes while the
// manager may be mid-rollback, the swap defers until no reconfiguration
// outcome is outstanding, and the whole run stays reproducible.
func TestAdaptAcrossManagerRollback(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan("drift-sustained:p=1,start=5,mag=-0.15;reconfig-fail:p=1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(Scenario2(), adaflow(t, lib), SimConfig{
			Seed:        1,
			FaultConfig: FaultConfig{Plan: plan, Seed: 1},
			Adapt:       adapt.Config{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.RunStats, b.RunStats) {
		t.Fatal("adaptive run with manager rollbacks not reproducible")
	}
	if a.RunStats.Faults.ReconfigFailures == 0 {
		t.Fatal("reconfig-fail window never fired; test not exercising rollback")
	}
	if a.RunStats.Adapt.Detections < 1 {
		t.Fatalf("drift never detected across the rollback window: %+v", a.RunStats.Adapt)
	}
	dropsAccounted(t, a.RunStats)
}

// TestGoldenAdaptTrace pins the closed loop's decision stream — every
// drift-detected / retrain-start / swap-commit / rollback event — for
// the canonical sustained-shift run. A diff means adaptation semantics
// changed: inspect it, then refresh with
//
//	go test ./internal/edge/ -run Golden -update
func TestGoldenAdaptTrace(t *testing.T) {
	lib := paperLib(t)
	_, got := catTrace(t, obs.AdaptCat, func(o RunOption) (*Result, error) {
		return Run(Scenario2(), adaflow(t, lib), SimConfig{
			Seed:        1,
			FaultConfig: FaultConfig{Plan: sustainedPlan(t), Seed: 1},
			Adapt:       adapt.Config{Enabled: true},
		}, o)
	})
	checkGolden(t, "adapt_scenario2.golden", got)
}

// TestAdaptRequiresSwappableController: enabling adaptation on a
// controller without a swappable library is a configuration error, not a
// silent no-op.
func TestAdaptRequiresSwappableController(t *testing.T) {
	lib := paperLib(t)
	_, err := Run(Scenario2(), NewStaticFINN(lib), SimConfig{Seed: 1,
		Adapt: adapt.Config{Enabled: true}})
	if err == nil {
		t.Fatal("static controller accepted an adaptive run")
	}
	if _, err := Run(Scenario2(), NewStaticFINN(lib), SimConfig{Seed: 1, EventLevel: true,
		Adapt: adapt.Config{Enabled: true}}); err == nil {
		t.Fatal("static controller accepted an adaptive event-level run")
	}
}
