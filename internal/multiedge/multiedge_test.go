package multiedge

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
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

func TestNewPoolValidation(t *testing.T) {
	lib := paperLib(t)
	if _, err := NewSupervisedPool(lib, Config{Boards: 0, Manager: manager.DefaultConfig()}); err == nil {
		t.Fatal("zero boards accepted")
	}
	p, err := NewSupervisedPool(lib, Config{Boards: 3, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.boards) != 3 {
		t.Fatalf("boards = %d", len(p.boards))
	}
}

// TestPoolCapacityScales: a 2-board pool under a doubled workload performs
// at least as well as a single board under the nominal workload.
func TestPoolCapacityScales(t *testing.T) {
	lib := paperLib(t)

	single, _, err := edge.RunRepeated(edge.Scenario2(), func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 1, Manager: manager.DefaultConfig()})
	}, 10, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}

	doubled := edge.Scenario2()
	doubled.Devices *= 2
	pool2, _, err := edge.RunRepeated(doubled, func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	}, 10, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pool2.FrameLossPct > single.FrameLossPct+2 {
		t.Fatalf("2-board pool at 2x load lost %.1f%%, single board at 1x lost %.1f%%",
			pool2.FrameLossPct, single.FrameLossPct)
	}
	if pool2.Processed < 1.8*single.Processed {
		t.Fatalf("2-board pool processed %.0f, want ≈2x %.0f", pool2.Processed, single.Processed)
	}
}

// TestPoolBeatsSingleOnOverload: when one board is overloaded, adding
// boards recovers the lost frames.
func TestPoolBeatsSingleOnOverload(t *testing.T) {
	lib := paperLib(t)
	scn := edge.Scenario2()
	scn.Devices = 60 // 1800 FPS mean: beyond any single-board version

	single, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		mgr, err := manager.New(lib, manager.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return edge.NewAdaFlow(mgr), nil
	}, 5, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pool, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 4, Manager: manager.DefaultConfig()})
	}, 5, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pool.FrameLossPct >= single.FrameLossPct {
		t.Fatalf("pool loss %.1f%% ≥ single %.1f%%", pool.FrameLossPct, single.FrameLossPct)
	}
	// More hardware burns more power in absolute terms.
	if pool.AvgPowerW <= single.AvgPowerW {
		t.Fatalf("pool power %.2f ≤ single %.2f", pool.AvgPowerW, single.AvgPowerW)
	}
}

// TestPoolSingleBoardMatchesAdaFlowController: a 1-board pool is exactly
// the plain AdaFlow controller. Under both serving models, seeds 1–5, every
// named scenario, fault-free and under a plan without board faults, the
// two runs agree on every RunStats field bit for bit and switch at the
// same instants with the same reconfigurations; only the switch labels
// differ. Energy is the field that catches a pool charging a finished
// frame at a later configuration's power.
func TestPoolSingleBoardMatchesAdaFlowController(t *testing.T) {
	lib := paperLib(t)
	faults, err := fault.ParsePlan("reconfig-fail:p=0.5;sensor-dropout:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(edge.NamedScenarios()))
	for name := range edge.NamedScenarios() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		scn, err := edge.NamedScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eventLevel := range []bool{false, true} {
			for _, plan := range []*fault.Plan{nil, faults} {
				for seed := int64(1); seed <= 5; seed++ {
					cfg := edge.SimConfig{Seed: seed, EventLevel: eventLevel}
					cfg.Plan, cfg.FaultConfig.Seed = plan, seed
					pool, err := NewSupervisedPool(lib, Config{Boards: 1, Manager: manager.DefaultConfig()})
					if err != nil {
						t.Fatal(err)
					}
					mgr, err := manager.New(lib, manager.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					a, err := edge.Run(scn, pool, cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := edge.Run(scn, edge.NewAdaFlow(mgr), cfg)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s event=%v faults=%v seed %d", name, eventLevel, plan != nil, seed)
					if ga, gb := fmt.Sprintf("%+v", a.RunStats), fmt.Sprintf("%+v", b.RunStats); ga != gb {
						t.Errorf("%s:\n1-board pool %s\nAdaFlow      %s", what, ga, gb)
					}
					if len(a.Switches) != len(b.Switches) {
						t.Errorf("%s: %d switches vs %d", what, len(a.Switches), len(b.Switches))
						continue
					}
					for i := range a.Switches {
						sa, sb := a.Switches[i], b.Switches[i]
						if sa.Time != sb.Time || sa.Reconfigured != sb.Reconfigured {
							t.Errorf("%s: switch %d %+v vs %+v", what, i, sa, sb)
						}
					}
				}
			}
		}
	}
}

// TestPoolBatchesCountedOnce: a batching pool accounts its own dispatch
// batches, so under either run kind the batched frames never exceed the
// frames processed plus those still queued at the end of the run.
func TestPoolBatchesCountedOnce(t *testing.T) {
	lib := paperLib(t)
	cfg := edge.SimConfig{Seed: 3, BatchConfig: edge.BatchConfig{Size: 8}}
	for _, run := range []struct {
		name       string
		eventLevel bool
	}{{"fluid", false}, {"event", true}} {
		pool, err := NewSupervisedPool(lib, Config{Boards: 4, Batch: 8, Manager: manager.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		cfg.EventLevel = run.eventLevel
		res, err := edge.Run(edge.Scenario2(), pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		backlog := res.Arrived - res.Processed - res.Dropped
		if res.Batch.Frames == 0 || res.Batch.Frames > res.Processed+backlog+1e-6 {
			t.Errorf("%s: %.0f batched frames, %.0f processed and %.0f queued at the end",
				run.name, res.Batch.Frames, res.Processed, backlog)
		}
	}
}

func TestPoolCounters(t *testing.T) {
	lib := paperLib(t)
	pool, err := NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Run(edge.Scenario2(), pool, edge.SimConfig{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if pool.Switches() == 0 {
		t.Fatal("no switches recorded")
	}
	if pool.Reconfigs() > pool.Switches() {
		t.Fatal("more reconfigs than switches")
	}
}

// TestChaosPoolInvariants: no fault plan may drive the pool's accounting
// out of its physical envelope. Over a matrix of workload/fault seeds we
// assert: loss and QoE stay in [0,100], nothing goes negative, the
// cumulative trace counters are monotone, and frame conservation holds.
func TestChaosPoolInvariants(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan(
		"reconfig-fail:p=0.5;reconfig-stall:p=0.3;sensor-dropout:p=0.2;" +
			"sensor-spike:p=0.3,mag=0.5;accuracy-drift:p=0.1,mag=-0.05")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		seed := seed
		p, err := NewSupervisedPool(lib, Config{Boards: 3, Manager: manager.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		snap := obs.NewSnapshot()
		res, err := edge.Run(edge.Scenario2(), p, edge.SimConfig{
			Seed:        seed,
			RecordTrace: true,
			FaultConfig: edge.FaultConfig{Plan: plan, Seed: seed * 101},
		}, edge.WithTracer(obs.New(snap)))
		if err != nil {
			t.Fatal(err)
		}
		if res.FrameLossPct < 0 || res.FrameLossPct > 100 {
			t.Fatalf("seed %d: loss %.3f%% out of [0,100]", seed, res.FrameLossPct)
		}
		if res.QoEPct < 0 || res.QoEPct > 100 {
			t.Fatalf("seed %d: QoE %.3f%% out of [0,100]", seed, res.QoEPct)
		}
		if res.Arrived < 0 || res.Processed < 0 || res.Dropped < 0 || res.EnergyJ < 0 {
			t.Fatalf("seed %d: negative totals: %+v", seed, res.RunStats)
		}
		if res.Processed+res.Dropped > res.Arrived+1e-6 {
			t.Fatalf("seed %d: conservation violated: processed %.3f + dropped %.3f > arrived %.3f",
				seed, res.Processed, res.Dropped, res.Arrived)
		}
		var prev edge.TracePoint
		for i, tp := range res.Trace {
			if tp.ArrivedCum < prev.ArrivedCum || tp.ProcessedCum < prev.ProcessedCum || tp.DroppedCum < prev.DroppedCum {
				t.Fatalf("seed %d: cumulative counter decreased at trace[%d]", seed, i)
			}
			if tp.LossPct < 0 || tp.LossPct > 100 || tp.QoEPct < 0 || tp.QoEPct > 100 {
				t.Fatalf("seed %d: trace[%d] loss/QoE out of range: %+v", seed, i, tp)
			}
			if tp.Accuracy < 0 || tp.Accuracy > 1 {
				t.Fatalf("seed %d: trace[%d] accuracy %.4f out of [0,1]", seed, i, tp.Accuracy)
			}
			prev = tp
		}
		if res.Faults.ReconfigFailures > 0 && snap.Count(obs.ManagerCat, "rollback") == 0 {
			t.Fatalf("seed %d: injector reports %d reconfig failures but no board rolled back",
				seed, res.Faults.ReconfigFailures)
		}
	}
}
