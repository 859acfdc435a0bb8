package edge

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/manager"
	"repro/internal/obs"
)

// decisionLog is a trace sink keeping a run's committed decision history:
// one "manager/decide" event per decision that changed the serving
// configuration, less each one a "manager/rollback" undid.
type decisionLog []obs.Event

func (l *decisionLog) Emit(ev obs.Event) {
	switch {
	case ev.Cat != obs.ManagerCat:
	case ev.Name == "decide" && attrValue(ev, "changed") == true:
		*l = append(*l, ev)
	case ev.Name == "rollback" && len(*l) > 0:
		*l = (*l)[:len(*l)-1]
	}
}

// attrValue returns the named attribute's payload (nil when absent).
func attrValue(ev obs.Event, key string) any {
	a, ok := ev.Attr(key)
	if !ok {
		return nil
	}
	return a.Value()
}

// TestChaosBitIdenticalReplay: two runs with the same workload seed, fault
// plan and fault seed replay bit-identically — traces, switch and fault
// timelines, and every aggregate stat.
func TestChaosBitIdenticalReplay(t *testing.T) {
	lib := paperLib(t)
	run := func() *Result {
		res, err := Run(Scenario12(), adaflow(t, lib), SimConfig{
			Seed:        3,
			RecordTrace: true,
			FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 11},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if ra, rb := renderGolden(a), renderGolden(b); ra != rb {
		t.Fatalf("seeded chaos replay diverged:\n%s", diffLines(ra, rb))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeded chaos replay diverged in unrendered fields")
	}

	// A different fault seed must change the draws (otherwise the seed is
	// dead and the matrix in make test-chaos is one run repeated).
	c, err := Run(Scenario12(), adaflow(t, lib), SimConfig{
		Seed:        3,
		RecordTrace: true,
		FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.RunStats, c.RunStats) {
		t.Fatal("fault seed has no effect on the run")
	}
}

// steadyOverload is a near-constant workload far above the unpruned
// model's capacity, so a threshold relaxation forces a model switch at a
// known time.
func steadyOverload() Scenario {
	return Scenario{
		Name: "chaos-steady", Duration: 25, Devices: 40, PerDeviceFPS: 30,
		Phases: []Phase{{Start: 0, Deviation: 0.005, Interval: 5}},
	}
}

// TestChaosDegradeToFlexibleWithinBudget is the acceptance scenario for
// the degradation policy: the manager starts pinned to the unpruned model
// (threshold 0) on the Fixed accelerator; at t=5 s the user relaxes the
// threshold, the manager switches to a faster version — an FPGA
// reconfiguration that a p=1 fault window keeps failing. Within the retry
// budget the manager must fall back to the Flexible accelerator, and no
// committed decision may ever violate the user's accuracy threshold.
func TestChaosDegradeToFlexibleWithinBudget(t *testing.T) {
	lib := paperLib(t)
	cfg := manager.DefaultConfig()
	cfg.AccuracyThreshold = 0
	mgr, err := manager.New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("reconfig-fail:p=1,start=4,end=8")
	if err != nil {
		t.Fatal(err)
	}
	const relaxed = 0.10
	var log decisionLog
	res, err := Run(steadyOverload(), NewAdaFlow(mgr), SimConfig{
		Seed:             1,
		FaultConfig:      FaultConfig{Plan: plan, Seed: 5},
		ThresholdChanges: []ThresholdChange{{Time: 5, Threshold: relaxed}},
	}, WithTracer(obs.New(&log)))
	if err != nil {
		t.Fatal(err)
	}

	// The manager's retry budget is its constant of three consecutive
	// failures.
	const budget = 3
	if res.Faults.ReconfigFailures < budget {
		t.Fatalf("only %d reconfig failures injected; the retry budget (%d) was never exercised",
			res.Faults.ReconfigFailures, budget)
	}
	if res.Faults.Degradations < 1 {
		t.Fatal("retry budget exhausted but no degradation recorded")
	}
	cur, ok := mgr.Current()
	if !ok || cur.Kind != manager.Flexible {
		t.Fatalf("manager did not degrade to Flexible: current %+v (ok=%v)", cur, ok)
	}
	sawDegraded := false
	floor := lib.BaselineAccuracy() - relaxed
	for _, ev := range log {
		if attrValue(ev, "degraded") == true {
			sawDegraded = true
			if kind := attrValue(ev, "kind"); kind != manager.Flexible.String() {
				t.Fatalf("degraded decision at t=%.3f served %v, want Flexible", ev.Time, kind)
			}
		}
		if lib.Entries[attrValue(ev, "entry").(int64)].Accuracy < floor-1e-12 {
			t.Fatalf("decision at t=%.3f violates the accuracy threshold", ev.Time)
		}
	}
	if !sawDegraded {
		t.Fatal("no committed decision was marked Degraded")
	}
}

// TestChaosInvariantsSeedMatrix sweeps workload and fault seeds over both
// run modes (fluid and event-level) and asserts the physical envelope:
// loss and QoE within [0,100], frame conservation, monotone cumulative
// trace counters.
func TestChaosInvariantsSeedMatrix(t *testing.T) {
	lib := paperLib(t)
	plan := chaosPlan(t)
	for _, seed := range []int64{1, 2, 5} {
		for _, fseed := range []int64{1, 9} {
			cfg := SimConfig{Seed: seed, FaultConfig: FaultConfig{Seed: fseed, Plan: plan}, RecordTrace: true}
			for _, mode := range runModes {
				cfg.EventLevel = mode.eventLevel
				res, err := Run(Scenario2(), adaflow(t, lib), cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkEnvelope(t, seed, fseed, res)
			}
		}
	}
}

func checkEnvelope(t *testing.T, seed, fseed int64, res *Result) {
	t.Helper()
	s := res.RunStats
	if s.FrameLossPct < 0 || s.FrameLossPct > 100 || s.QoEPct < 0 || s.QoEPct > 100 {
		t.Fatalf("seed %d/%d: loss %.3f / QoE %.3f out of [0,100]", seed, fseed, s.FrameLossPct, s.QoEPct)
	}
	if s.Arrived < 0 || s.Processed < 0 || s.Dropped < 0 || s.EnergyJ < 0 {
		t.Fatalf("seed %d/%d: negative totals %+v", seed, fseed, s)
	}
	if s.Processed+s.Dropped > s.Arrived+1e-6 {
		t.Fatalf("seed %d/%d: conservation violated", seed, fseed)
	}
	var prev TracePoint
	for i, tp := range res.Trace {
		if tp.ArrivedCum < prev.ArrivedCum || tp.ProcessedCum < prev.ProcessedCum || tp.DroppedCum < prev.DroppedCum {
			t.Fatalf("seed %d/%d: cumulative counter decreased at trace[%d]", seed, fseed, i)
		}
		if tp.Accuracy < 0 || tp.Accuracy > 1 {
			t.Fatalf("seed %d/%d: trace[%d] accuracy %.4f out of [0,1]", seed, fseed, i, tp.Accuracy)
		}
		prev = tp
	}
}
