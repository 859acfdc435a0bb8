package edge

import (
	"reflect"
	"testing"

	"repro/internal/manager"
	"repro/internal/obs"
)

// TestGoldenDecisionTraces pins the Runtime Manager's complete decision
// stream — every decide/commit/rollback event with its candidate set,
// threshold, and switch-interval verdict — for the three paper scenarios.
// A diff means decision semantics changed: inspect it, then refresh with
//
//	go test ./internal/edge/ -run Golden -update
func TestGoldenDecisionTraces(t *testing.T) {
	lib := paperLib(t)
	cases := []struct {
		file string
		scn  Scenario
	}{
		{file: "decisions_scenario1.golden", scn: Scenario1()},
		{file: "decisions_scenario2.golden", scn: Scenario2()},
		{file: "decisions_scenario12.golden", scn: Scenario12()},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			_, got := catTrace(t, obs.ManagerCat, func(o RunOption) (*Result, error) {
				return Run(tc.scn, adaflow(t, lib), SimConfig{Seed: 1}, o)
			})
			checkGolden(t, tc.file, got)
		})
	}
}

// TestGoldenDecisionTracesFamilies pins the decision stream for every
// new scenario family in the workload zoo under both accelerator-family
// rules. The interval-policy traces prove the grammar-built scenarios
// drive the paper's rule deterministically; the rate-policy traces pin
// the sustained-rate verdicts (policy/sustained/stable attributes).
// Refresh after an intentional semantic change with
//
//	go test ./internal/edge/ -run Golden -update
func TestGoldenDecisionTracesFamilies(t *testing.T) {
	lib := paperLib(t)
	for _, family := range []string{"diurnal", "flash", "heavytail", "multicam"} {
		for _, policy := range []manager.SwitchPolicy{manager.SwitchInterval, manager.SwitchRate} {
			t.Run(family+"_"+policy.String(), func(t *testing.T) {
				scn, err := NamedScenario(family)
				if err != nil {
					t.Fatal(err)
				}
				cfg := manager.DefaultConfig()
				cfg.SwitchPolicy = policy
				mgr, err := manager.New(lib, cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, got := catTrace(t, obs.ManagerCat, func(o RunOption) (*Result, error) {
					return Run(scn, NewAdaFlow(mgr), SimConfig{Seed: 1}, o)
				})
				checkGolden(t, "decisions_"+family+"_"+policy.String()+".golden", got)
			})
		}
	}
}

// TestTracingBitIdentical checks the tentpole's determinism contract at
// the edge-server level: full-fat tracing (unit sampling, all categories)
// must not change a single bit of the results, in either simulation mode.
func TestTracingBitIdentical(t *testing.T) {
	lib := paperLib(t)
	cfg := SimConfig{Seed: 3, FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 7}}
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := cfg
			cfg.EventLevel = mode.eventLevel
			plain, err := Run(Scenario12(), adaflow(t, lib), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ring := obs.NewRing(128)
			traced, err := Run(Scenario12(), adaflow(t, lib), cfg, WithTracer(obs.New(ring, obs.Sample(1))))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.RunStats, traced.RunStats) {
				t.Errorf("tracing changed RunStats:\nplain  %+v\ntraced %+v", plain.RunStats, traced.RunStats)
			}
			if !reflect.DeepEqual(plain.Switches, traced.Switches) {
				t.Errorf("tracing changed the switch timeline")
			}
			if !reflect.DeepEqual(plain.FaultEvents, traced.FaultEvents) {
				t.Errorf("tracing changed the fault timeline")
			}
			if ring.Total() == 0 {
				t.Error("traced run emitted no events")
			}
		})
	}
}

// TestRunRepeatedTraced checks per-run tracer children: the aggregate
// snapshot sees every run exactly once, tagged run=i, and the mean is
// unchanged by tracing.
func TestRunRepeatedTraced(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) {
		ctl := adaflow(t, lib)
		return ctl, nil
	}
	const n = 4
	mean, _, err := RunRepeated(Scenario1(), mk, n, 5, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.NewSnapshot()
	ring := obs.NewRing(4096)
	tr := obs.New(obs.Multi(snap, ring), obs.Sample(1000))
	meanTraced, _, err := RunRepeated(Scenario1(), mk, n, 5, SimConfig{}, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mean, meanTraced) {
		t.Errorf("tracing changed the repeated-run mean:\nplain  %+v\ntraced %+v", mean, meanTraced)
	}
	if got := snap.Count(obs.EdgeCat, "run"); got != n {
		t.Errorf("edge/run summaries = %d, want %d", got, n)
	}
	seen := map[int]bool{}
	for _, ev := range ring.Events() {
		if ev.Cat != obs.EdgeCat || ev.Name != "run" {
			continue
		}
		a, ok := ev.Attr("run")
		if !ok {
			t.Fatalf("edge/run event missing run attribute: %+v", ev)
		}
		seen[int(a.Float())] = true
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Errorf("no edge/run summary tagged run=%d", i)
		}
	}
}
