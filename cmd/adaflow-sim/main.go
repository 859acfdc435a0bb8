// Command adaflow-sim runs the Edge-server simulation for one scenario and
// controller, printing the run summary and (optionally) a per-step CSV
// trace, a JSONL event/decision trace, or a Prometheus-style metrics
// snapshot.
//
// Usage:
//
//	adaflow-sim [-scenario SPEC] [-controller adaflow|finn|reconf|pool|cluster]
//	            [-policy interval|rate]
//	            [-runs N] [-seed S] [-threshold 0.10] [-criteria 10]
//	            [-reconfig-ms 145] [-csv]
//	            [-boards 4] [-standby 1] [-queue-depth 16] [-deadline 0.05]
//	            [-batch 8]
//	            [-trace out.jsonl] [-trace-sample 25] [-metrics-snapshot]
//	            [-fault-plan "kind:p=X,start=Y,end=Z,mag=M;..."] [-fault-seed S]
//	            [-adapt] [-adapt-threshold 0.03]
//	            [-streams 1000] [-pools 8] [-epochs 5] [-epoch-seconds 5]
//	            [-stream-spec "name[*N]:rate=,prio=,tenant=,slo=,..."]
//	            [-fault-pools 0,1] [-tenant-share 0.5]
//
// -scenario takes a workload spec in the composable grammar — a registered
// name ("paper1", "paper2", "paper12", "paper-churn", "diurnal", "flash",
// "heavytail", "multicam") or `|`-separated primitives such as
//
//	-scenario "diurnal:period=60,amp=0.4 | burst:at=15,x=3,len=2 | tail:pareto,alpha=1.5"
//	-scenario "replay:file=trace.jsonl"
//
// The historical short names 1, 2, and 1+2/12 still select the paper
// scenarios. See DESIGN.md "Workload grammar" for every primitive.
//
// -policy selects the manager's accelerator-family rule: "interval" (the
// paper's switch-interval criterion, default) or "rate" (size the serving
// configuration to a sustained-rate EWMA estimate and go Fixed only while
// the rate is stable). Applies to the adaflow, pool, and cluster
// controllers.
//
// -controller pool serves through a supervised multi-board pool of -boards
// FPGAs (plus -standby hot spares); board-level fault kinds in -fault-plan
// (board-crash, board-hang, frame-corrupt, board-brownout, each accepting
// board=K and repair=S) exercise failover, standby promotion, and the
// quorum degraded mode. -queue-depth bounds the admission queue and
// -deadline (seconds) sheds frames that cannot be served in time; every
// shed frame carries a cause (queue-full, deadline-exceeded,
// no-healthy-board, reconfig-stall).
//
// -batch N serves up to N frames per dispatch so per-dispatch fixed costs
// amortize over the batch; a batch is cut short before it would push its
// oldest frame past -deadline. For -controller pool and cluster the batch
// queue sits in front of each board. -batch 1 (or 0) is exactly the
// historical single-frame serving.
//
// -controller cluster shards -streams camera streams (or an explicit
// -stream-spec declaration) across -pools supervised pools of -boards
// FPGAs each, rebalancing at -epoch-seconds boundaries for -epochs
// epochs. -fault-pools restricts -fault-plan to those pool indices.
// Cluster-level shedding extends the drop taxonomy with no-pool-capacity,
// tenant-throttled, and migrating; the summary reports per-tenant totals.
//
// -adapt turns on the closed-loop drift recovery: a windowed EWMA
// detector over the measured-accuracy stream arms on sustained drift
// (deficit past -adapt-threshold for the hold-down), runs a deterministic
// background retrain, and hot-swaps the recovered library into the
// serving manager (or staggered across a pool's boards) without stopping
// the stream. Pair it with an accuracy-drift or drift-sustained fault
// rule to see the recovery; the summary reports detections, retrains,
// swaps, rollbacks, and mean recovered accuracy points.
//
// -trace streams every decision event (manager verdicts, switches, faults,
// board health transitions) plus sampled hot-path events to a JSON Lines
// file; -metrics-snapshot aggregates the same events and prints Prometheus
// text exposition format to stdout after the run. Tracing is passive:
// results are bit-identical with or without it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/accuracy"
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/multiedge"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaflow-sim: ")
	scenario := flag.String("scenario", "2", `workload spec: a named scenario ("paper1", "diurnal", ...), a grammar spec ("stable | burst:at=10,x=3"), or the legacy short names 1, 2, 1+2`)
	controller := flag.String("controller", "adaflow", "adaflow, finn, reconf, pool, or cluster")
	policy := flag.String("policy", "interval", `accelerator-family rule: "interval" (paper) or "rate" (sustained-rate aware)`)
	modelName := flag.String("model", "CNVW2A2", "CNVW2A2 or CNVW1A2")
	ds := flag.String("dataset", "cifar10", "cifar10 or gtsrb")
	runs := flag.Int("runs", 1, "repetitions to average")
	seed := flag.Int64("seed", 1, "workload seed")
	threshold := flag.Float64("threshold", 0.10, "accuracy threshold")
	criteria := flag.Float64("criteria", 10, "fixed/flexible criteria multiple")
	reconfMS := flag.Float64("reconfig-ms", 145, "reconfiguration time for -controller reconf")
	boards := flag.Int("boards", 4, "serving boards for -controller pool")
	standby := flag.Int("standby", 0, "hot standby boards for -controller pool")
	queueDepth := flag.Float64("queue-depth", 0, "admission queue bound in frames (0 = default 16)")
	deadline := flag.Float64("deadline", 0, "admission deadline in seconds (0 = no deadline shedding)")
	batch := flag.Int("batch", 0, "micro-batch size: frames served per dispatch (<= 1 keeps single-frame serving)")
	csv := flag.Bool("csv", false, "print per-step trace CSV (single run)")
	traceFile := flag.String("trace", "", "write a JSONL event/decision trace to this file")
	traceSample := flag.Int("trace-sample", 25, "keep every nth hot-path trace event (decision events are never sampled)")
	metricsSnapshot := flag.Bool("metrics-snapshot", false, "print a Prometheus-style metrics snapshot to stdout after the run")
	faultSpec := flag.String("fault-plan", "", `fault plan, e.g. "reconfig-fail:p=0.5,start=4,end=8;board-crash:p=1,board=0,start=5,end=5.2,repair=10" (kinds: reconfig-fail, reconfig-stall, sensor-dropout, sensor-spike, accuracy-drift, drift-sustained, board-crash, board-hang, frame-corrupt, board-brownout)`)
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed (same plan+seed replays bit-identically)")
	adaptOn := flag.Bool("adapt", false, "enable closed-loop drift recovery (detect, retrain, hot-swap)")
	adaptThreshold := flag.Float64("adapt-threshold", 0, "accuracy deficit (points, e.g. 0.03) that arms the drift detector (0 = default)")
	streams := flag.Int("streams", 1000, "camera streams for -controller cluster")
	streamSpec := flag.String("stream-spec", "", `explicit stream declarations for -controller cluster, e.g. "cam*96:rate=30,tenant=bronze;ptz*4:rate=60,prio=high,tenant=gold,slo=0.05"`)
	pools := flag.Int("pools", 8, "fleet size for -controller cluster")
	epochs := flag.Int("epochs", 5, "placement epochs for -controller cluster")
	epochSeconds := flag.Float64("epoch-seconds", 5, "epoch length in seconds for -controller cluster")
	faultPools := flag.String("fault-pools", "", "comma-separated pool indices -fault-plan targets (empty = all pools)")
	tenantShare := flag.Float64("tenant-share", 0, "max fraction of cluster capacity per tenant (0 = uncapped)")
	flag.Parse()

	var plan *fault.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = fault.ParsePlan(*faultSpec); err != nil {
			log.Fatal(err)
		}
	}

	var adaptCfg adapt.Config
	if *adaptOn {
		if *controller == "cluster" {
			log.Fatal("-adapt is not supported with -controller cluster (use adaflow or pool)")
		}
		adaptCfg.Enabled = true
		adaptCfg.Threshold = *adaptThreshold
	}

	switchPolicy, err := manager.ParseSwitchPolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}

	// The legacy short names map onto the named specs; anything else goes
	// through the workload grammar (named scenarios included).
	spec := *scenario
	switch spec {
	case "1":
		spec = "paper1"
	case "2":
		spec = "paper2"
	case "1+2", "12":
		spec = "paper12"
	}
	scn, err := edge.ParseScenario(spec)
	if err != nil {
		log.Fatal(err)
	}

	classes := 10
	if *ds == "gtsrb" {
		classes = 43
	}
	var m *model.Model
	switch *modelName {
	case "CNVW2A2":
		m, err = model.CNVW2A2(*ds, classes, 1)
	case "CNVW1A2":
		m, err = model.CNVW1A2(*ds, classes, 1)
	default:
		log.Fatalf("unknown model %q", *modelName)
	}
	if err != nil {
		log.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated(*modelName, *ds)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := library.Generate(m, library.Config{Evaluator: ev})
	if err != nil {
		log.Fatal(err)
	}

	mk := func() (edge.Controller, error) {
		switch *controller {
		case "adaflow":
			cfg := manager.DefaultConfig()
			cfg.AccuracyThreshold = *threshold
			cfg.CriteriaMultiple = *criteria
			cfg.SwitchPolicy = switchPolicy
			mgr, err := manager.New(lib, cfg)
			if err != nil {
				return nil, err
			}
			return edge.NewAdaFlow(mgr), nil
		case "finn":
			return edge.NewStaticFINN(lib), nil
		case "reconf":
			return edge.NewPruningReconf(lib, *threshold,
				time.Duration(*reconfMS*float64(time.Millisecond)))
		case "pool":
			cfg := manager.DefaultConfig()
			cfg.AccuracyThreshold = *threshold
			cfg.CriteriaMultiple = *criteria
			cfg.SwitchPolicy = switchPolicy
			return multiedge.NewSupervisedPool(lib, multiedge.Config{
				Boards: *boards, Standby: *standby, Manager: cfg,
				Batch: *batch,
			})
		default:
			return nil, fmt.Errorf("unknown controller %q", *controller)
		}
	}

	// Assemble the observability pipeline: JSONL file and/or in-memory
	// snapshot, behind one tracer. No flags → nil tracer → zero overhead.
	var sinks []obs.Tracer
	var jsonl *obs.JSONL
	if *traceFile != "" {
		var err error
		if jsonl, err = obs.NewJSONLFile(*traceFile); err != nil {
			log.Fatal(err)
		}
		sinks = append(sinks, jsonl)
	}
	var snap *obs.Snapshot
	if *metricsSnapshot {
		snap = obs.NewSnapshot()
		sinks = append(sinks, snap)
	}
	var opts []edge.RunOption
	if len(sinks) > 0 {
		opts = append(opts, edge.WithTracer(obs.New(obs.Multi(sinks...), obs.Sample(*traceSample))))
	}
	finishTrace := func() {
		if jsonl != nil {
			if err := jsonl.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("trace written to %s", *traceFile)
		}
		if snap != nil {
			if _, err := snap.WriteTo(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *controller == "cluster" {
		var specs []cluster.StreamSpec
		switch {
		case *streamSpec != "":
			if specs, err = cluster.ParseStreams(*streamSpec); err != nil {
				log.Fatal(err)
			}
		case *streams < 1 || *streams > cluster.MaxStreams:
			log.Fatalf("-streams %d outside [1, %d]", *streams, cluster.MaxStreams)
		default:
			specs = cluster.DefaultStreams(*streams)
		}
		var fp []int
		if *faultPools != "" {
			for _, part := range strings.Split(*faultPools, ",") {
				i, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					log.Fatalf("bad -fault-pools entry %q", part)
				}
				fp = append(fp, i)
			}
		}
		mcfg := manager.DefaultConfig()
		mcfg.AccuracyThreshold = *threshold
		mcfg.CriteriaMultiple = *criteria
		mcfg.SwitchPolicy = switchPolicy
		sch, err := cluster.New(lib, specs, cluster.Config{
			Pools: *pools, BoardsPerPool: *boards, Standby: *standby,
			Epochs: *epochs, EpochSeconds: *epochSeconds,
			TenantShare: *tenantShare, Seed: *seed,
			FaultPlan: plan, FaultPools: fp, FaultSeed: *faultSeed,
			QueueFrames: *queueDepth, Deadline: *deadline, Manager: mcfg,
			Batch: *batch,
		})
		if err != nil {
			log.Fatal(err)
		}
		if len(sinks) > 0 {
			sch.SetTracer(obs.New(obs.Multi(sinks...), obs.Sample(*traceSample)))
		}
		res, err := sch.Run()
		if err != nil {
			log.Fatal(err)
		}
		printCluster(res)
		finishTrace()
		return
	}

	cfg := edge.SimConfig{
		AdmissionConfig: edge.AdmissionConfig{QueueFrames: *queueDepth, Deadline: *deadline},
		BatchConfig:     edge.BatchConfig{Size: *batch},
		FaultConfig:     edge.FaultConfig{Plan: plan, Seed: *faultSeed},
		Adapt:           adaptCfg,
	}
	if *csv || *runs == 1 {
		ctl, err := mk()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Seed, cfg.RecordTrace = *seed, *csv
		res, err := edge.Run(scn, ctl, cfg, opts...)
		if err != nil {
			log.Fatal(err)
		}
		printStats(scn.Name, *controller, res.RunStats.FrameLossPct, res.RunStats.QoEPct,
			res.RunStats.AvgPowerW, res.RunStats.PowerEff, res.RunStats.Switches, res.RunStats.Reconfigs)
		printFaults(plan, res.RunStats.Faults, res.FaultEvents)
		printAdapt(*adaptOn, res.RunStats.Adapt)
		printPool(res.RunStats)
		printBatch(res.RunStats.Batch)
		for _, ev := range res.Switches {
			kind := "fast"
			if ev.Reconfigured {
				kind = "reconf"
			}
			fmt.Printf("switch t=%6.2fs %-18s (%s)\n", ev.Time, ev.Label, kind)
		}
		if *csv {
			fmt.Println("time,incoming_fps,processed_fps,loss_pct,inst_loss_pct,qoe_pct,accuracy,power_w")
			for _, p := range res.Trace {
				fmt.Printf("%.2f,%.1f,%.1f,%.2f,%.2f,%.2f,%.4f,%.3f\n",
					p.Time, p.IncomingFPS, p.ProcessedFPS, p.LossPct, p.InstLossPct, p.QoEPct, p.Accuracy, p.PowerW)
			}
		}
		finishTrace()
		return
	}

	mean, _, err := edge.RunRepeated(scn, mk, *runs, *seed, cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	printStats(scn.Name, *controller, mean.FrameLossPct, mean.QoEPct,
		mean.AvgPowerW, mean.PowerEff, mean.Switches, mean.Reconfigs)
	printFaults(plan, mean.Faults, nil)
	printAdapt(*adaptOn, mean.Adapt)
	printPool(mean)
	printBatch(mean.Batch)
	finishTrace()
}

// printCluster summarizes a cluster run: fleet shape, loss with the
// full cluster drop taxonomy, rebalancing activity, supervision
// counters, and per-tenant service (sorted for stable output).
func printCluster(res *cluster.Result) {
	fmt.Printf("cluster: %d streams on %d pools for %d epochs: frame loss %.2f%% (%.0f of %.0f frames)\n",
		res.Streams, res.Pools, res.Epochs, res.FrameLossPct, res.Dropped, res.Arrived)
	d := res.Drops
	if d.Total() > 0 {
		fmt.Printf("drops: %.0f queue-full, %.0f deadline-exceeded, %.0f no-healthy-board, %.0f reconfig-stall, %.0f no-pool-capacity, %.0f tenant-throttled, %.0f migrating\n",
			d.Pool.QueueFull, d.Pool.DeadlineExceeded, d.Pool.NoHealthyBoard, d.Pool.ReconfigStall,
			d.NoPoolCapacity, d.TenantThrottled, d.Migrating)
	}
	fmt.Printf("rebalance: %d migrations, %d throttled stream-epochs, %d unplaced stream-epochs\n",
		res.Migrations, res.Throttled, res.Unplaced)
	printBatch(res.Batch)
	p := res.Pool
	if p.BoardsDied+p.BoardsRecovered+p.Failovers+p.StandbyPromotions+p.DegradedEntries > 0 {
		fmt.Printf("fleet: %d boards died, %d recovered, %d failovers, %d promotions, %d degraded entries\n",
			p.BoardsDied, p.BoardsRecovered, p.Failovers, p.StandbyPromotions, p.DegradedEntries)
	}
	names := make([]string, 0, len(res.Tenants))
	for name := range res.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := res.Tenants[name]
		loss := 0.0
		if t.Arrived > 0 {
			loss = t.Dropped / t.Arrived * 100
		}
		fmt.Printf("tenant %-8s %-6s %4d streams, %5.2f%% loss (%.0f of %.0f frames)\n",
			name, t.Class, t.Streams, loss, t.Dropped, t.Arrived)
	}
}

// printBatch summarizes micro-batched dispatch; silent unless batching
// was enabled and at least one batch flushed.
func printBatch(s metrics.BatchStats) {
	if s.Batches == 0 {
		return
	}
	fmt.Printf("batching: %.0f batches, mean %.2f frames, max %.0f (%.0f full, %.0f deadline-slack, %.0f idle flushes)\n",
		s.Batches, s.MeanBatch(), s.MaxBatch, s.FullFlushes, s.SlackFlushes, s.IdleFlushes)
}

// printAdapt summarizes the closed-loop drift recovery; silent unless
// -adapt was given.
func printAdapt(on bool, s metrics.AdaptStats) {
	if !on {
		return
	}
	fmt.Printf("adapt: %d detections, %d retrains, %d swaps, %d rollbacks, %.4f accuracy points recovered (processed-weighted mean)\n",
		s.Detections, s.Retrains, s.Swaps, s.Rollbacks, s.RecoveredPoints)
}

// printPool summarizes admission-control shedding (by cause) and pool
// supervision activity; silent when neither fired.
func printPool(s metrics.RunStats) {
	if s.Drops.Total() > 0 {
		fmt.Printf("drops: %.0f queue-full, %.0f deadline-exceeded, %.0f no-healthy-board, %.0f reconfig-stall\n",
			s.Drops.QueueFull, s.Drops.DeadlineExceeded, s.Drops.NoHealthyBoard, s.Drops.ReconfigStall)
	}
	p := s.Pool
	if p.BoardsDied+p.BoardsRecovered+p.Failovers+p.StandbyPromotions+p.DegradedEntries > 0 {
		fmt.Printf("pool: %d boards died, %d recovered, %d failovers, %d promotions, %d degraded entries\n",
			p.BoardsDied, p.BoardsRecovered, p.Failovers, p.StandbyPromotions, p.DegradedEntries)
	}
}

// printFaults summarizes the chaos run: per-kind counters, then the
// structural fault timeline (single-run mode only).
func printFaults(plan *fault.Plan, c metrics.FaultStats, events []edge.FaultEvent) {
	if plan == nil {
		return
	}
	fmt.Printf("faults: %d reconfig failures (%d degradations), %d stalls, %d dropouts, %d spikes, %d drifts\n",
		c.ReconfigFailures, c.Degradations, c.ReconfigStalls, c.SensorDropouts, c.SensorSpikes, c.AccuracyDrifts)
	if c.SustainedDrifts > 0 {
		fmt.Printf("sustained drift: %d perturbed accuracy samples\n", c.SustainedDrifts)
	}
	if c.BoardCrashes+c.BoardHangs+c.FrameCorruptions+c.BoardBrownouts > 0 {
		fmt.Printf("board faults: %d crashes, %d hangs, %d corruptions, %d brownouts\n",
			c.BoardCrashes, c.BoardHangs, c.FrameCorruptions, c.BoardBrownouts)
	}
	for _, fe := range events {
		fmt.Printf("fault  t=%6.2fs %-14s %s\n", fe.Time, fe.Kind, fe.Detail)
	}
}

func printStats(scn, ctl string, loss, qoe, power, eff float64, switches, reconfigs int) {
	fmt.Printf("%s / %s: frame loss %.2f%%, QoE %.2f%%, power %.3f W, %.1f inf/J, %d switches, %d reconfigs\n",
		scn, ctl, loss, qoe, power, eff, switches, reconfigs)
}
