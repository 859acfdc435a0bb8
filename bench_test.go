package adaflow

import (
	"testing"

	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/sim"
)

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
	// disabled. Measured 241; margin 4.
	{"RunEdge", "fluid", 245, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdge, SimConfig{})
	}},
	// The event-level simulator under a deadline, every frame an event:
	// batch=1 dispatches per frame, batch=8 amortizes the per-dispatch
	// costs (service completions, their engine events, controller
	// bookkeeping) over eight frames. Measured 191 and 194; margin 4.
	{"RunEdge", "batch=1", 195, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdgeEventLevel, SimConfig{
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 1},
		})
	}},
	{"RunEdge", "batch=8", 198, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdgeEventLevel, SimConfig{
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 8},
		})
	}},
	// The closed drift-recovery loop (detect, retrain, swap) under a
	// sustained shift. Measured 254; margin 4.
	{"RunEdge", "adapt", 258, func(tb testing.TB) func(int) {
		return edgeOp(tb, RunEdge, SimConfig{
			FaultConfig: FaultConfig{Plan: mustPlan(tb, "drift-sustained:p=1,start=5,mag=-0.15"), Seed: 1},
			Adapt:       AdaptConfig{Enabled: true},
		})
	}},
	// A supervised four-board pool over the hybrid scenario. Healthy:
	// heartbeats and health bookkeeping must stay free when no fault
	// fires. One-dead: a board crashes mid-run (detection, failover,
	// capacity redistribution). Batched: an 8-frame dispatch queue per
	// board, advanced on the heartbeats. Measured 324, 316 and 324;
	// margin 4.
	{"PoolRun", "healthy", 328, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4}, nil)
	}},
	{"PoolRun", "one-dead", 320, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4}, mustPlan(tb, "board-crash:p=1,board=0,start=5,end=5.05,repair=60"))
	}},
	{"PoolRun", "batched", 328, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4, Batch: 8}, nil)
	}},
	// The fleet scheduler: 1000 streams on 8 supervised pools for 5
	// epochs. Placement, rebalancing and aggregation must stay cheap next
	// to the serving they orchestrate; one-pool-dead crashes every board
	// of pool 0 mid-run (migration, blackout accounting, repair).
	// Measured 4659–4660 and 4620; margin 20, below the ~2000
	// allocations one per heartbeat would add.
	{"ClusterRun", "healthy", 4680, func(tb testing.TB) func(int) {
		return clusterOp(tb, nil, nil)
	}},
	{"ClusterRun", "one-pool-dead", 4640, func(tb testing.TB) func(int) {
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
