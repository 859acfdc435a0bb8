package adaflow

// Fleet facade: the supervised multi-board pool (internal/multiedge), the
// fault-plan grammar (internal/fault), and the robustness metrics they
// feed. A Pool is an edge Controller, so it plugs straight into RunEdge:
//
//	pool, _ := adaflow.NewSupervisedPool(lib, adaflow.PoolConfig{
//		Boards: 4, Standby: 1, Manager: adaflow.DefaultManagerConfig(),
//	})
//	plan, _ := adaflow.ParseFaultPlan("board-crash:p=1,board=0,start=5,end=5.05,repair=30")
//	scn, _ := adaflow.ParseScenario("paper12")
//	res, _ := adaflow.RunEdge(scn, pool, adaflow.SimConfig{
//		Seed:            1,
//		FaultConfig:     adaflow.FaultConfig{Plan: plan, Seed: 1},
//		AdmissionConfig: adaflow.AdmissionConfig{Deadline: 0.05},
//	})
//	fmt.Println(res.Pool.Failovers, res.Drops.Total())

import (
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/multiedge"
)

type (
	// Pool is a supervised multi-board dispatcher: health state machines,
	// failover, standby promotion, and quorum degraded mode over a fleet
	// of per-board Runtime Managers. It implements Controller.
	Pool = multiedge.Pool
	// PoolConfig tunes the pool (serving-set size, standbys, heartbeat
	// period, quorum, degraded-mode relax, per-board manager config).
	PoolConfig = multiedge.Config
	// BoardState is a board's health station (healthy, suspect, dead,
	// recovering).
	BoardState = multiedge.BoardState

	// FaultPlan schedules deterministic fault injection for a run.
	FaultPlan = fault.Plan
	// FaultRule is one scheduled fault of a plan.
	FaultRule = fault.Rule

	// AdaptConfig tunes the closed-loop drift recovery (SimConfig.Adapt):
	// its detection threshold and its retrainer. The detector window and
	// hold-down, retrain latency, validation margin, probation and
	// rollback backoff are constants. Set Enabled to turn the loop on:
	//
	//	plan, _ := adaflow.ParseFaultPlan("drift-sustained:p=1,start=5,mag=-0.15")
	//	scn, _ := adaflow.ParseScenario("paper2")
	//	res, _ := adaflow.RunEdge(scn, ctl, adaflow.SimConfig{
	//		Seed:        1,
	//		FaultConfig: adaflow.FaultConfig{Plan: plan, Seed: 1},
	//		Adapt:       adaflow.AdaptConfig{Enabled: true},
	//	})
	//	fmt.Println(res.Adapt.Swaps, res.Adapt.RecoveredPoints)
	AdaptConfig = adapt.Config
	// AdaptStats counts the adaptation loop's actions for a run
	// (RunStats.Adapt): detections, retrains, swaps, rollbacks, and the
	// processed-weighted mean accuracy recovered.
	AdaptStats = metrics.AdaptStats
	// Retrainer produces retrained candidate libraries for the adaptation
	// loop; set AdaptConfig.Retrainer to run a real train/prune/Generate
	// pipeline instead of the analytic default.
	Retrainer = adapt.Retrainer

	// PoolStats counts fleet supervision actions (RunStats.Pool).
	PoolStats = metrics.PoolStats
	// DropStats partitions shed frames by cause (RunStats.Drops).
	DropStats = metrics.DropStats
	// DropCause names why a frame was shed.
	DropCause = metrics.DropCause
)

// NewSupervisedPool builds a supervised pool over a shared library; the
// returned Pool is a Controller for RunEdge.
func NewSupervisedPool(lib *Library, cfg PoolConfig) (*Pool, error) {
	return multiedge.NewSupervisedPool(lib, cfg)
}

// ParseFaultPlan parses the fault-plan grammar used by adaflow-sim's
// -fault-plan flag ("kind:p=X,start=Y,end=Z,mag=M[,board=K,repair=S];…").
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	return fault.ParsePlan(spec)
}

// Cluster facade: the fleet-scale stream scheduler (internal/cluster).
// A ClusterScheduler shards declared camera streams across a fleet of
// supervised pools, rebalancing at epoch boundaries:
//
//	streams, _ := adaflow.ParseStreams("cam*96:rate=30,tenant=bronze;ptz*4:rate=60,prio=high,tenant=gold,slo=0.05")
//	sch, _ := adaflow.NewClusterScheduler(lib, streams, adaflow.ClusterConfig{Pools: 8, Seed: 1})
//	res, _ := sch.Run()
//	fmt.Println(res.FrameLossPct, res.Drops.Total())

type (
	// ClusterScheduler places streams onto pools and dispatches each
	// pool's epoch through RunEdge, seed-replayable at any worker count.
	ClusterScheduler = cluster.Scheduler
	// ClusterConfig tunes the fleet (pool count/size, epochs, headroom,
	// tenant share cap, fault plan and targeting).
	ClusterConfig = cluster.Config
	// ClusterResult aggregates a cluster run: totals, drop taxonomy,
	// migrations, per-tenant stats, per-epoch reports.
	ClusterResult = cluster.Result
	// StreamSpec declares one camera stream (tenant, priority class,
	// rate, SLO, fluctuation).
	StreamSpec = cluster.StreamSpec
	// StreamPriority is a stream's admission class (low, normal, high).
	StreamPriority = cluster.Priority
	// ClusterDrops extends the one-cause-per-drop taxonomy to the
	// cluster level (ClusterResult.Drops).
	ClusterDrops = metrics.ClusterDrops
)

// Stream priority classes, shed-first to shed-last.
const (
	StreamLow    = cluster.Low
	StreamNormal = cluster.Normal
	StreamHigh   = cluster.High
)

// NewClusterScheduler builds a fleet scheduler over a shared library.
func NewClusterScheduler(lib *Library, streams []StreamSpec, cfg ClusterConfig) (*ClusterScheduler, error) {
	return cluster.New(lib, streams, cfg)
}

// ParseStreams parses the stream-spec grammar used by adaflow-sim's
// -stream-spec flag ("name[*N]:rate=,prio=,tenant=,slo=,dev=,interval=;…").
func ParseStreams(spec string) ([]StreamSpec, error) {
	return cluster.ParseStreams(spec)
}

// DefaultStreams builds the CLI's synthetic n-camera fleet (10% gold /
// 30% silver / 60% bronze tiers).
func DefaultStreams(n int) []StreamSpec {
	return cluster.DefaultStreams(n)
}
