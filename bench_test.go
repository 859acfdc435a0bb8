package adaflow

import (
	"testing"

	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// ---- hot paths: allocation ceilings and profiling entry points ----

// hotPath is one serving or design-time hot-path case. TestHotPathAllocs
// holds its allocations per operation under maxAllocs, and
// Benchmark<bench>/<name> runs the same operation for profiling. setup
// builds what every operation shares and returns operation i, which runs
// with seed i.
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
	// disabled. The 2500 accounting steps are one tick sequence held
	// beside the event heap, so queuing them up front (event slabs, queue
	// resizes) trips it, and each decision's power curve is copied into
	// the Serving, so a closure per decision trips it. Measured 117–118;
	// margin 4.
	{"RunEdge", "fluid", 122, func(tb testing.TB) func(int) {
		return edgeOp(tb, SimConfig{})
	}},
	// The event-level simulator under a deadline, every frame an event:
	// batch=1 dispatches per frame, batch=8 amortizes the per-dispatch
	// costs (service completions, their engine events, controller
	// bookkeeping) over eight frames. Measured 127 and 130; margin 4.
	{"RunEdge", "batch=1", 131, func(tb testing.TB) func(int) {
		return edgeOp(tb, SimConfig{
			EventLevel:      true,
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 1},
		})
	}},
	{"RunEdge", "batch=8", 134, func(tb testing.TB) func(int) {
		return edgeOp(tb, SimConfig{
			EventLevel:      true,
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 8},
		})
	}},
	// The closed drift-recovery loop (detect, retrain, swap) under a
	// sustained shift. Measured 130; margin 4.
	{"RunEdge", "adapt", 134, func(tb testing.TB) func(int) {
		return edgeOp(tb, SimConfig{
			FaultConfig: FaultConfig{Plan: mustPlan(tb, "drift-sustained:p=1,start=5,mag=-0.15"), Seed: 1},
			Adapt:       AdaptConfig{Enabled: true},
		})
	}},
	// A supervised four-board pool over the hybrid scenario. Healthy:
	// heartbeats and health bookkeeping must stay free when no fault
	// fires. One-dead: a board crashes mid-run (detection, failover,
	// capacity redistribution). Batched: an 8-frame dispatch queue per
	// board, advanced on the heartbeats. React keeps its able boards,
	// weights and labels in the pool and allocates only the Serving's
	// copy of the power curves, so a label, scratch slice or closure per
	// React trips it. Measured 80, 86 and 80; margin 4.
	{"PoolRun", "healthy", 84, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4}, nil)
	}},
	{"PoolRun", "one-dead", 90, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4}, mustPlan(tb, "board-crash:p=1,board=0,start=5,end=5.05,repair=60"))
	}},
	{"PoolRun", "batched", 84, func(tb testing.TB) func(int) {
		return poolOp(tb, PoolConfig{Boards: 4, Batch: 8}, nil)
	}},
	// The fleet scheduler: 1000 streams on 8 supervised pools for 5
	// epochs. Placement, rebalancing and aggregation must stay cheap next
	// to the serving they orchestrate; one-pool-dead crashes every board
	// of pool 0 mid-run (migration, blackout accounting, repair).
	// Admission fills reused index buffers and each epoch's report holds
	// index slices, so fresh per-epoch buffers or name-keyed maps trip it.
	// The 1000 stream specs are built in set-up, so the count is the
	// scheduler's own. Measured 1545–1550 and 1537–1541; margin 20, below
	// the ~2000 allocations one per heartbeat would add.
	{"ClusterRun", "healthy", 1570, func(tb testing.TB) func(int) {
		return clusterOp(tb, nil, nil)
	}},
	{"ClusterRun", "one-pool-dead", 1561, func(tb testing.TB) func(int) {
		return clusterOp(tb, mustPlan(tb, "board-crash:p=1,start=6,end=6.3,repair=8"), []int{0})
	}},
	// 1000 events queued up front, then drained through the event heap.
	// The closure is hoisted out of the schedule loop so the count is the
	// engine's own (event storage, heap growth): slab-allocated events
	// cost a few allocations per thousand, not one each. No served run
	// queues like this; it keeps the kernel's worst case measured.
	// Measured 38; margin 2.
	{"DESKernel", "heap", 40, func(tb testing.TB) func(int) {
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
	// The design-time Library Generator on its shape-only path: CNVW2A2
	// on CIFAR-10 with the calibrated evaluator, one worker, 18 rates.
	// Plans come from channel counts alone, so ranking the filters again
	// (a few allocations per convolution) or building removal lists (at
	// least one per pruned layer and rate) trips it. Measured 5074;
	// margin 4.
	{"LibraryGenerate", "shape-only", 5078, func(tb testing.TB) func(int) {
		m, err := NewCNVW2A2("cifar10", 10, 1)
		if err != nil {
			tb.Fatal(err)
		}
		ev, err := NewCalibratedEvaluator("CNVW2A2", "cifar10")
		if err != nil {
			tb.Fatal(err)
		}
		return func(int) {
			if _, err := GenerateLibrary(m, LibraryConfig{Evaluator: ev, Workers: 1}); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	// Host inference of a batch of 8 CIFAR-10 images through unpruned
	// CNVW2A2, caches warm: the staged path keeps levels in borrowed
	// scratch between layers, so a float activation tensor per layer and
	// sample (at least 8 per layer) trips it. Measured 396–398; margin 4.
	{"ForwardBatch", "CNVW2A2-p0", 402, func(tb testing.TB) func(int) {
		m, err := NewCNVW2A2("cifar10", 10, 1)
		if err != nil {
			tb.Fatal(err)
		}
		ds := SyntheticCIFAR10(1)
		xs := make([]*tensor.Tensor, 8)
		for j := range xs {
			xs[j], _ = ds.TestSample(j)
		}
		if _, err := m.Net.ForwardBatch(xs); err != nil { // fills the caches
			tb.Fatal(err)
		}
		return func(int) {
			if _, err := m.Net.ForwardBatch(xs); err != nil {
				tb.Fatal(err)
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

// edgeOp serves Scenario 2 under a fresh AdaFlow controller.
func edgeOp(tb testing.TB, cfg SimConfig) func(int) {
	lib := paperLib(tb)
	return func(i int) {
		mgr, err := NewRuntimeManager(lib, DefaultManagerConfig())
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Seed = int64(i)
		if _, err := RunEdge(edge.Scenario2(), NewAdaFlowController(mgr), cfg); err != nil {
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
// The streams are built once: the scheduler copies them into its own specs.
func clusterOp(tb testing.TB, plan *FaultPlan, faultPools []int) func(int) {
	lib := paperLib(tb)
	streams := DefaultStreams(1000)
	return func(i int) {
		sch, err := NewClusterScheduler(lib, streams, ClusterConfig{
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

// TestHotPathAllocs gates every hot path on an exact allocation ceiling.
// The counts do not depend on the machine: AllocsPerRun pins GOMAXPROCS
// to 1 and the test pins every worker-pool cap to 2, so the pools'
// fan-outs start the same goroutines everywhere.
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
// kernel's event heap (see hotPaths).
func BenchmarkDESKernel(b *testing.B) { benchHotPaths(b, "DESKernel") }

// BenchmarkLibraryGenerate measures design-time library generation on
// its shape-only path (see hotPaths).
func BenchmarkLibraryGenerate(b *testing.B) { benchHotPaths(b, "LibraryGenerate") }

// BenchmarkForwardBatch measures host inference of a batch through
// CNVW2A2 (see hotPaths).
func BenchmarkForwardBatch(b *testing.B) { benchHotPaths(b, "ForwardBatch") }
