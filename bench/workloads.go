package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/accuracy"
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/finn"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/prune"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// opOut is what one operation produced, beyond its host time.
type opOut struct {
	// canon renders the simulated outputs (or predictions) canonically;
	// the first checkOps renderings form the run's digest.
	canon func() string
	// Simulated totals of serving operations (zero elsewhere).
	simSec, arrived, processed, dropped, energyJ, qoe float64
	images                                            int
}

// runner executes the operations of one workload. Operation i is a pure
// function of the workload seed and i, so a run replays exactly.
type runner interface {
	// op runs operation i and checks its invariants; t is nil when the
	// loop is untraced. An error counts the operation as failed.
	op(i int, t *tracer) (opOut, error)
}

// verifier is implemented by runners that check outputs against a slow
// reference after the measured loop, so the check's cost stays out of it.
type verifier interface {
	verify() (failed int, err error)
}

// afterOper is implemented by runners that measure more about a traced
// operation by replaying part of it; the loop calls afterOp outside the
// operation's timing.
type afterOper interface {
	afterOp(i int, t *tracer) error
}

// workload is one set of inputs the benchmark runs, in a closed loop: one
// caller issues operation i+1 as soon as operation i returns.
type workload struct {
	name string
	// variants is the number of distinct kinds of operation; operation i is
	// of kind i%variants. Percentiles are taken per kind.
	variants int
	// checkOps is the number of leading operations whose outputs form the
	// digest and the exact simulated metrics; every run does at least these.
	checkOps int
	// probeOps is the traced operation count when this workload only
	// supplies its layers' metrics to another workload's traced run.
	probeOps int
	setup    func(seed int64) (runner, error)
	layers   func(r runner, t *tracer) (map[string]float64, error)
}

var workloads = []*workload{
	{name: "edge-fluid", variants: 8, checkOps: 16, probeOps: 48, setup: newFluidRunner, layers: fluidLayers},
	{name: "edge-event", variants: 16, checkOps: 16, probeOps: 32, setup: newEventRunner, layers: eventLayers},
	{name: "cluster", variants: 2, checkOps: 4, probeOps: 8, setup: newClusterRunner, layers: clusterLayers},
	{name: "libgen", variants: 4, checkOps: 4, probeOps: 8, setup: newLibgenRunner, layers: libgenLayers},
	{name: "cnn-infer", variants: 4, checkOps: 4, probeOps: 8, setup: newCNNRunner, layers: cnnLayers},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(names, ", "))
}

// scenarioNames is the named scenario zoo the serving workloads rotate
// through: the paper's three scenarios plus the grammar's extended
// families, so every serving mechanism (churn, bursts, heavy tails,
// correlated cameras) is exercised.
var scenarioNames = []string{"paper1", "paper2", "paper12", "paper-churn", "diurnal", "flash", "heavytail", "multicam"}

// Fault plan of edge-fluid: a sustained accuracy drift that the closed
// adaptation loop must detect and retrain away, plus failing
// reconfigurations the manager must roll back.
const fluidFaults = "drift-sustained:p=1,start=5,mag=-0.15;reconfig-fail:p=0.3,start=2,end=20"

// Fault plan of the odd cluster operations: every board of pool 0 crashes.
const clusterCrash = "board-crash:p=1,start=6,end=6.3,repair=8"

// opSeed derives operation i's simulation seed from the workload seed.
func opSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// buildModel builds a pair's paper-scale CNN with weights drawn from seed.
func buildModel(p experiments.Pair, seed int64) (*model.Model, error) {
	if p.ModelName == "CNVW1A2" {
		return model.CNVW1A2(p.Dataset, p.Classes, seed)
	}
	return model.CNVW2A2(p.Dataset, p.Classes, seed)
}

// servingLibrary generates the CNVW2A2/CIFAR-10 library every serving
// workload serves from. It is generated anew on every set-up (never taken
// from a cache), so its cost shows in setup_s.
func servingLibrary() (*library.Library, error) {
	p := experiments.Pairs[0]
	m, err := buildModel(p, 1)
	if err != nil {
		return nil, err
	}
	ev, err := accuracy.NewCalibrated(p.ModelName, p.Dataset)
	if err != nil {
		return nil, err
	}
	lib, err := library.Generate(m, library.Config{Evaluator: ev})
	if err != nil {
		return nil, err
	}
	return lib, lib.Validate()
}

// checkServing checks the invariants every serving run must keep: each
// dropped frame has exactly one cause, frames are conserved up to what is
// still queued or in service when the run ends, and QoE is a percentage.
func checkServing(s metrics.RunStats, backlogCap float64) error {
	tol := 1e-9 * math.Max(1, s.Arrived)
	if d := s.Drops.Total(); math.Abs(d-s.Dropped) > tol {
		return fmt.Errorf("drops by cause %v != dropped %v", d, s.Dropped)
	}
	if b := s.Arrived - s.Processed - s.Dropped; b < -tol || b > backlogCap+tol {
		return fmt.Errorf("arrived-processed-dropped = %v outside [0, %v]", b, backlogCap)
	}
	if s.QoEPct < 0 || s.QoEPct > 100 {
		return fmt.Errorf("QoE %v%% outside [0, 100]", s.QoEPct)
	}
	return nil
}

// ---- edge-fluid and edge-event ----

type edgeRunner struct {
	lib   *library.Library
	scns  []edge.Scenario
	seed  int64
	event bool
	plan  *fault.Plan // edge-fluid only
}

func newEdgeRunner(seed int64, event bool) (*edgeRunner, error) {
	lib, err := servingLibrary()
	if err != nil {
		return nil, err
	}
	r := &edgeRunner{lib: lib, seed: seed, event: event}
	for _, n := range scenarioNames {
		scn, err := edge.NamedScenario(n)
		if err != nil {
			return nil, err
		}
		r.scns = append(r.scns, scn)
	}
	if !event {
		if r.plan, err = fault.ParsePlan(fluidFaults); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func newFluidRunner(seed int64) (runner, error) { return newEdgeRunner(seed, false) }
func newEventRunner(seed int64) (runner, error) { return newEdgeRunner(seed, true) }

// config returns operation i's run configuration. edge-event alternates
// single-frame and 8-frame batches per pass over the scenarios, so every
// scenario runs at both sizes.
func (r *edgeRunner) config(i int) edge.SimConfig {
	seed := opSeed(r.seed, i)
	if !r.event {
		return edge.SimConfig{
			Seed:        seed,
			FaultConfig: edge.FaultConfig{Plan: r.plan, Seed: seed},
			Adapt:       adapt.Config{Enabled: true},
		}
	}
	batch := 1
	if (i/len(r.scns))%2 == 1 {
		batch = 8
	}
	return edge.SimConfig{
		Seed:            seed,
		AdmissionConfig: edge.AdmissionConfig{Deadline: 0.1},
		BatchConfig:     edge.BatchConfig{Size: batch},
		PoissonArrivals: true,
	}
}

// run executes operation i through ctl.
func (r *edgeRunner) run(i int, ctl edge.Controller, opts ...edge.RunOption) (*edge.Result, error) {
	scn := r.scns[i%len(r.scns)]
	if r.event {
		return edge.RunEventLevel(scn, ctl, r.config(i), opts...)
	}
	return edge.Run(scn, ctl, r.config(i), opts...)
}

func (r *edgeRunner) op(i int, t *tracer) (opOut, error) {
	scn := r.scns[i%len(r.scns)]
	mgr, err := manager.New(r.lib, manager.DefaultConfig())
	if err != nil {
		return opOut{}, err
	}
	var ctl edge.Controller = edge.NewAdaFlow(mgr)
	if t != nil {
		ctl = timedController{edge.NewAdaFlow(mgr), t}
	}
	res, err := r.run(i, ctl)
	if err != nil {
		return opOut{}, err
	}
	// The default 16-frame queue and one batch in service may still hold
	// frames when the run ends.
	backlog := 16 + float64(max(r.config(i).BatchConfig.Size, 1))
	if err := checkServing(res.RunStats, backlog); err != nil {
		return opOut{}, fmt.Errorf("%s: %w", scn.Name, err)
	}
	s := res.RunStats
	if t != nil {
		f := s.Faults
		t.add("fault.injections", float64(f.ReconfigFailures+f.ReconfigStalls+f.SensorDropouts+f.SensorSpikes+
			f.AccuracyDrifts+f.SustainedDrifts+f.BoardCrashes+f.BoardHangs+f.FrameCorruptions+f.BoardBrownouts))
		t.add("adapt.swaps", float64(s.Adapt.Swaps))
		t.add("adapt.rollbacks", float64(s.Adapt.Rollbacks))
		t.add("adapt.recovered_pts", 100*s.Adapt.RecoveredPoints)
		t.add("drops.queue_full", s.Drops.QueueFull)
		t.add("drops.deadline_exceeded", s.Drops.DeadlineExceeded)
		t.add("drops.reconfig_stall", s.Drops.ReconfigStall)
		t.add("drops.total", s.Dropped)
		t.add("batch.batches", s.Batch.Batches)
		t.add("batch.frames", s.Batch.Frames)
		t.add("batch.slack_flushes", s.Batch.SlackFlushes)
	}
	return opOut{
		canon:   func() string { return canonServing(s) },
		simSec:  scn.Duration,
		arrived: s.Arrived, processed: s.Processed, dropped: s.Dropped,
		energyJ: s.EnergyJ, qoe: s.QoEPct,
	}, nil
}

// canonServing renders the simulated outcomes of a serving run, field by
// named field, so a field added to RunStats later leaves digests alone.
func canonServing(s metrics.RunStats) string {
	return fmt.Sprintf("arr=%v proc=%v drop=%v qoe=%v acc=%v energy=%v sw=%d reconf=%d "+
		"drops=%v/%v/%v/%v batch=%v/%v adapt=%d/%d/%d/%d/%v faults=%d/%d/%d",
		s.Arrived, s.Processed, s.Dropped, s.QoEPct, s.AvgAccuracy, s.EnergyJ, s.Switches, s.Reconfigs,
		s.Drops.QueueFull, s.Drops.DeadlineExceeded, s.Drops.NoHealthyBoard, s.Drops.ReconfigStall,
		s.Batch.Batches, s.Batch.Frames,
		s.Adapt.Detections, s.Adapt.Retrains, s.Adapt.Swaps, s.Adapt.Rollbacks, s.Adapt.RecoveredPoints,
		s.Faults.ReconfigFailures, s.Faults.SustainedDrifts, s.Faults.Degradations)
}

// afterOp replays traced operation i twice, outside its timing: once with
// an obs sink on the run to count the events the simulation kernel
// dispatched, and (edge-fluid) once through the workload draws alone to
// time the workload layer.
func (r *edgeRunner) afterOp(i int, t *tracer) error {
	mgr, err := manager.New(r.lib, manager.DefaultConfig())
	if err != nil {
		return err
	}
	sink := &eventSink{}
	// Sampling away the per-step events keeps the sink to the kernel's run
	// summary and the decision events.
	if _, err := r.run(i, edge.NewAdaFlow(mgr), edge.WithTracer(obs.New(sink, obs.Sample(math.MaxInt)))); err != nil {
		return err
	}
	t.add("sim.events", float64(sink.dispatched.Load()))
	if r.event {
		return nil
	}
	scn := r.scns[i%len(r.scns)]
	return t.measure("workload.redraw", func() error {
		wl, err := edge.NewWorkload(scn, sim.RNG(opSeed(r.seed, i), "workload/"+scn.Name))
		if err != nil {
			return err
		}
		for at := wl.NextBoundary(0); at < scn.Duration; at = wl.NextBoundary(at) {
			wl.Redraw(at)
		}
		return nil
	})
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// managerLayers reports the Runtime Manager's read path as the wrapper saw
// it, and the serving loop's own time: the operation minus the manager
// calls, per operation and per simulated event.
func managerLayers(kind string, t *tracer) map[string]float64 {
	ops := float64(t.ops)
	root := t.agg("op")
	react := t.agg("manager.react")
	events := t.counts["sim.events"]
	return map[string]float64{
		"edge." + kind + ".self_ms_per_op":        float64(root.selfNs) / 1e6 / ops,
		"edge." + kind + ".ns_per_sim_event":      per(float64(root.selfNs), events),
		"sim." + kind + ".events_per_op":          events / ops,
		"manager." + kind + ".react_calls_per_op": float64(react.calls) / ops,
		"manager." + kind + ".react_us":           per(float64(react.totalNs)/1e3, float64(react.calls)),
		"manager." + kind + ".react_share":        per(float64(react.totalNs), float64(t.opNs)),
		"manager." + kind + ".switch_ratio":       per(t.counts["manager.switches"], float64(react.calls)),
	}
}

func fluidLayers(_ runner, t *tracer) (map[string]float64, error) {
	m := managerLayers("fluid", t)
	ops := float64(t.ops)
	swap := t.agg("manager.swap")
	m["manager.swap_calls_per_op"] = float64(swap.calls) / ops
	m["manager.swap_us"] = per(float64(swap.totalNs)/1e3, float64(swap.calls))
	m["manager.swap_commit_ratio"] = per(t.counts["manager.swap_commits"], float64(swap.calls))
	m["manager.reconfig_fail_calls_per_op"] = float64(t.agg("manager.reconfig_fail").calls) / ops
	redraw := t.agg("workload.redraw")
	m["workload.redraw_us"] = per(float64(redraw.totalNs)/1e3, float64(redraw.calls))
	m["fault.injections_per_op"] = t.counts["fault.injections"] / ops
	m["adapt.swaps_per_op"] = t.counts["adapt.swaps"] / ops
	m["adapt.rollbacks_per_op"] = t.counts["adapt.rollbacks"] / ops
	m["adapt.recovered_pts"] = t.counts["adapt.recovered_pts"] / ops
	return m, nil
}

func eventLayers(_ runner, t *tracer) (map[string]float64, error) {
	m := managerLayers("event", t)
	drops := t.counts["drops.total"]
	m["admission.drop_share.queue_full"] = per(t.counts["drops.queue_full"], drops)
	m["admission.drop_share.deadline_exceeded"] = per(t.counts["drops.deadline_exceeded"], drops)
	m["admission.drop_share.reconfig_stall"] = per(t.counts["drops.reconfig_stall"], drops)
	m["batch.mean_size"] = per(t.counts["batch.frames"], t.counts["batch.batches"])
	m["batch.slack_flush_share"] = per(t.counts["batch.slack_flushes"], t.counts["batch.batches"])
	return m, nil
}

// ---- cluster ----

type clusterRunner struct {
	lib     *library.Library
	streams []cluster.StreamSpec
	crash   *fault.Plan
	seed    int64
}

const (
	clusterPools  = 8
	clusterBoards = 4 // cluster.Config default BoardsPerPool
	clusterBatch  = 8
	clusterEpochs = 5 // cluster.Config default Epochs of EpochSeconds each
	clusterEpochS = 5
)

func newClusterRunner(seed int64) (runner, error) {
	lib, err := servingLibrary()
	if err != nil {
		return nil, err
	}
	crash, err := fault.ParsePlan(clusterCrash)
	if err != nil {
		return nil, err
	}
	return &clusterRunner{lib: lib, streams: cluster.DefaultStreams(1000), crash: crash, seed: seed}, nil
}

func (r *clusterRunner) op(i int, t *tracer) (opOut, error) {
	seed := opSeed(r.seed, i)
	cfg := cluster.Config{Pools: clusterPools, Batch: clusterBatch, Deadline: 0.05, Seed: seed}
	if i%2 == 1 {
		cfg.FaultPlan, cfg.FaultPools, cfg.FaultSeed = r.crash, []int{0}, seed
	}
	sch, err := cluster.New(r.lib, r.streams, cfg)
	if err != nil {
		return opOut{}, err
	}
	var sink *phaseSink
	if t != nil {
		sink = newPhaseSink(t)
		sch.SetTracer(obs.New(sink))
	}
	res, err := sch.Run()
	if err != nil {
		return opOut{}, err
	}
	if t != nil {
		sink.record(t.now())
	}
	if err := checkCluster(res); err != nil {
		return opOut{}, err
	}
	if t != nil {
		t.add("cluster.migrations", float64(res.Migrations))
		t.add("cluster.unplaced", float64(res.Unplaced))
		t.add("cluster.throttled", float64(res.Throttled))
		t.add("cluster.drops.migrating", res.Drops.Migrating)
		t.add("cluster.drops.no_pool_capacity", res.Drops.NoPoolCapacity)
		t.add("cluster.drops.tenant_throttled", res.Drops.TenantThrottled)
		t.add("cluster.drops.pool", res.Drops.Pool.Total())
		t.add("cluster.drops.total", res.Dropped)
		t.add("pool.failovers", float64(res.Pool.Failovers))
		t.add("pool.boards_died", float64(res.Pool.BoardsDied))
	}
	return opOut{
		canon:   func() string { return canonCluster(res) },
		simSec:  clusterEpochs * clusterEpochS,
		arrived: res.Arrived, processed: res.Processed, dropped: res.Dropped,
	}, nil
}

// checkCluster checks the fleet-wide invariants. Every epoch's pool run
// may end with its queue and its boards' batches still holding frames.
func checkCluster(res *cluster.Result) error {
	tol := 1e-9 * math.Max(1, res.Arrived)
	if d := res.Drops.Total(); math.Abs(d-res.Dropped) > tol {
		return fmt.Errorf("cluster drops by cause %v != dropped %v", d, res.Dropped)
	}
	capacity := float64(clusterEpochs * clusterPools * (16 + clusterBoards*clusterBatch))
	if b := res.Arrived - res.Processed - res.Dropped; b < -tol || b > capacity+tol {
		return fmt.Errorf("cluster arrived-processed-dropped = %v outside [0, %v]", b, capacity)
	}
	if res.FrameLossPct < 0 || res.FrameLossPct > 100 {
		return fmt.Errorf("cluster frame loss %v%% outside [0, 100]", res.FrameLossPct)
	}
	return nil
}

func canonCluster(res *cluster.Result) string {
	var b strings.Builder
	d := res.Drops
	fmt.Fprintf(&b, "arr=%v proc=%v drop=%v drops=%v/%v/%v/%v/%v/%v/%v mig=%d thr=%d unp=%d died=%d failover=%d batch=%v/%v",
		res.Arrived, res.Processed, res.Dropped,
		d.Pool.QueueFull, d.Pool.DeadlineExceeded, d.Pool.NoHealthyBoard, d.Pool.ReconfigStall,
		d.NoPoolCapacity, d.TenantThrottled, d.Migrating,
		res.Migrations, res.Throttled, res.Unplaced, res.Pool.BoardsDied, res.Pool.Failovers,
		res.Batch.Batches, res.Batch.Frames)
	for _, n := range sortedKeys(res.Tenants) {
		ts := res.Tenants[n]
		fmt.Fprintf(&b, " %s=%d/%v/%v/%v", n, ts.Streams, ts.Arrived, ts.Processed, ts.Dropped)
	}
	return b.String()
}

func clusterLayers(_ runner, t *tracer) (map[string]float64, error) {
	ops := float64(t.ops)
	epochs := t.counts["cluster.epochs"]
	place, dispatch := t.agg("cluster.place"), t.agg("cluster.dispatch")
	drops := t.counts["cluster.drops.total"]
	return map[string]float64{
		"cluster.place_ms_per_epoch":          per(float64(place.totalNs)/1e6, epochs),
		"cluster.dispatch_ms_per_epoch":       per(float64(dispatch.totalNs)/1e6, epochs),
		"cluster.place_share":                 per(float64(place.totalNs), float64(place.totalNs+dispatch.totalNs)),
		"cluster.migrations_per_op":           t.counts["cluster.migrations"] / ops,
		"cluster.unplaced_per_op":             t.counts["cluster.unplaced"] / ops,
		"cluster.throttled_per_op":            t.counts["cluster.throttled"] / ops,
		"cluster.drop_share.migrating":        per(t.counts["cluster.drops.migrating"], drops),
		"cluster.drop_share.no_pool_capacity": per(t.counts["cluster.drops.no_pool_capacity"], drops),
		"cluster.drop_share.tenant_throttled": per(t.counts["cluster.drops.tenant_throttled"], drops),
		"cluster.drop_share.pool":             per(t.counts["cluster.drops.pool"], drops),
		"pool.failovers_per_op":               t.counts["pool.failovers"] / ops,
		"pool.boards_died_per_op":             t.counts["pool.boards_died"] / ops,
	}, nil
}

// ---- libgen ----

type libgenRunner struct {
	models []*model.Model
	evals  []accuracy.Evaluator
	gran   [][]int
}

func newLibgenRunner(seed int64) (runner, error) {
	r := &libgenRunner{}
	for _, p := range experiments.Pairs {
		m, err := buildModel(p, seed)
		if err != nil {
			return nil, err
		}
		ev, err := accuracy.NewCalibrated(p.ModelName, p.Dataset)
		if err != nil {
			return nil, err
		}
		gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
		if err != nil {
			return nil, err
		}
		r.models = append(r.models, m)
		r.evals = append(r.evals, ev)
		r.gran = append(r.gran, gran)
	}
	return r, nil
}

func (r *libgenRunner) op(i int, t *tracer) (opOut, error) {
	k := i % len(r.models)
	ev := r.evals[k]
	gen := -1
	if t != nil {
		gen = t.open("library.generate", 0)
		ev = timedEvaluator{inner: ev, t: t, parent: gen}
	}
	lib, err := library.Generate(r.models[k], library.Config{Evaluator: ev})
	if t != nil {
		t.close(gen)
	}
	if err != nil {
		return opOut{}, err
	}
	if err := lib.Validate(); err != nil {
		return opOut{}, err
	}
	return opOut{canon: func() string { return canonLibrary(lib) }}, nil
}

// afterOp times, outside traced operation i, one call of each stage
// library generation runs per pruned version, on the operation's model at
// one of the paper's rates.
func (r *libgenRunner) afterOp(i int, t *tracer) error {
	k := i % len(r.models)
	rates := library.PaperRates()
	rate := rates[(i/len(r.models))%len(rates)]
	var pm *model.Model
	var df *finn.Dataflow
	return errors.Join(
		t.measure("prune.shrink", func() (err error) {
			pm, _, err = prune.Shrink(r.models[k], rate, r.gran[k])
			return err
		}),
		t.measure("finn.map", func() (err error) {
			df, err = finn.Map(pm, finn.DefaultFolding(pm), finn.Options{})
			return err
		}),
		t.measure("synth.synthesize", func() error {
			_, err := synth.Synthesize(df, synth.ZCU104)
			return err
		}))
}

func canonLibrary(lib *library.Library) string {
	var b strings.Builder
	res := func(r synth.Resources) string { return fmt.Sprintf("%d/%d/%d/%d", r.LUT, r.FF, r.BRAM, r.DSP) }
	fmt.Fprintf(&b, "%s/%s flex=%s reconf=%v", lib.ModelName, lib.Dataset, res(lib.Flexible.Res), lib.ReconfigTime)
	for _, e := range lib.Entries {
		fmt.Fprintf(&b, "\n%v %v %v %v %v %v %v %s", e.NominalRate, e.EffectiveRate, e.Channels,
			e.Accuracy, e.FixedFPS, e.FlexFPS, e.FlexEnergyPerInfJ, res(e.Fixed.Res))
	}
	return b.String()
}

func libgenLayers(_ runner, t *tracer) (map[string]float64, error) {
	ops := float64(t.ops)
	gen, eval := t.agg("library.generate"), t.agg("accuracy.eval")
	callMS := func(name string) float64 {
		a := t.agg(name)
		return per(float64(a.totalNs)/1e6, float64(a.calls))
	}
	return map[string]float64{
		"accuracy.eval_ms_per_op": float64(eval.totalNs) / 1e6 / ops,
		"accuracy.eval_share":     per(float64(gen.totalNs-gen.selfNs), float64(gen.totalNs)),
		"prune.shrink_ms":         callMS("prune.shrink"),
		"finn.map_ms":             callMS("finn.map"),
		"synth.synthesize_ms":     callMS("synth.synthesize"),
	}, nil
}

// ---- cnn-infer ----

// cnnRates are the pruning rates cnn-infer rotates through, from the
// unpruned network (large GEMMs) to 85 % (small ones).
var cnnRates = []float64{0, 0.25, 0.5, 0.85}

const cnnBatch = 8

type cnnRunner struct {
	models  []*model.Model // one pruned CNVW2A2 per rate
	batches [][]*tensor.Tensor
	names   [][]string // span name of each layer, per rate
	preds   map[int][]int
	uses    map[int]int
}

func rateLabel(rate float64) string { return fmt.Sprintf("p%.0f", rate*100) }

func newCNNRunner(seed int64) (runner, error) {
	m, err := model.CNVW2A2("cifar10", 10, seed)
	if err != nil {
		return nil, err
	}
	gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
	if err != nil {
		return nil, err
	}
	r := &cnnRunner{preds: map[int][]int{}, uses: map[int]int{}}
	for _, rate := range cnnRates {
		pm, _, err := prune.Shrink(m, rate, gran)
		if err != nil {
			return nil, err
		}
		r.models = append(r.models, pm)
		var names []string
		conv, fc := 0, 0
		for _, nl := range pm.Net.Layers {
			name := "other"
			switch nl.Layer.(type) {
			case *nn.Conv2D:
				name = fmt.Sprintf("conv%d", conv)
				conv++
			case *nn.Dense:
				name = fmt.Sprintf("fc%d", fc)
				fc++
			}
			names = append(names, "nn."+name+"."+rateLabel(rate))
		}
		r.names = append(r.names, names)
	}
	ds := dataset.SyntheticCIFAR10(seed)
	for b := 0; b < 2; b++ {
		var xs []*tensor.Tensor
		for j := 0; j < cnnBatch; j++ {
			x, _ := ds.TestSample(b*cnnBatch + j)
			xs = append(xs, x)
		}
		r.batches = append(r.batches, xs)
	}
	return r, nil
}

func (r *cnnRunner) op(i int, t *tracer) (opOut, error) {
	k := i % len(r.models)
	b := (i / len(r.models)) % len(r.batches)
	var preds []int
	var err error
	if t == nil {
		preds, err = r.models[k].Net.PredictBatch(r.batches[b])
	} else {
		preds, err = r.tracedPredict(k, r.batches[b], t)
		t.add("nn.ops."+rateLabel(cnnRates[k]), 1)
	}
	if err != nil {
		return opOut{}, err
	}
	key := k*len(r.batches) + b
	r.uses[key]++
	if first, ok := r.preds[key]; !ok {
		r.preds[key] = preds
	} else if !slices.Equal(first, preds) {
		return opOut{}, fmt.Errorf("rate %v batch %d: predictions %v, earlier %v", cnnRates[k], b, preds, first)
	}
	return opOut{
		canon:  func() string { return fmt.Sprintf("%s b%d %v", rateLabel(cnnRates[k]), b, preds) },
		images: len(preds),
	}, nil
}

// tracedPredict runs the batch layer by layer exactly as
// nn.Network.ForwardBatch does, timing every layer call.
func (r *cnnRunner) tracedPredict(k int, xs []*tensor.Tensor, t *tracer) ([]int, error) {
	cur := slices.Clone(xs)
	for li, nl := range r.models[k].Net.Layers {
		id := t.open(r.names[k][li], 0)
		if bl, ok := nl.Layer.(nn.BatchLayer); ok {
			out, err := bl.ForwardBatch(cur)
			if err != nil {
				return nil, err
			}
			cur = out
		} else {
			for j, x := range cur {
				out, err := nl.Layer.Forward(x, false)
				if err != nil {
					return nil, err
				}
				cur[j] = out
			}
		}
		t.close(id)
	}
	preds := make([]int, len(cur))
	for j, out := range cur {
		preds[j] = out.ArgMax()
	}
	return preds, nil
}

// verify checks every batch prediction the loop made against per-sample
// Network.Forward, the unbatched reference path.
func (r *cnnRunner) verify() (int, error) {
	failed := 0
	var firstErr error
	for key, preds := range r.preds {
		k, b := key/len(r.batches), key%len(r.batches)
		for j, x := range r.batches[b] {
			out, err := r.models[k].Net.Forward(x, false)
			if err == nil && out.ArgMax() != preds[j] {
				err = fmt.Errorf("rate %v batch %d image %d: batched %d, per-sample %d", cnnRates[k], b, j, preds[j], out.ArgMax())
			}
			if err != nil {
				failed += r.uses[key]
				if firstErr == nil {
					firstErr = err
				}
				break
			}
		}
	}
	return failed, firstErr
}

// cnnLayers reports each layer's host time per batch of 8 at each rate,
// the MAC throughput of the compute layers, and the share of quantized
// weights that are exactly zero.
func cnnLayers(rr runner, t *tracer) (map[string]float64, error) {
	r := rr.(*cnnRunner)
	m := map[string]float64{}
	for k, rate := range cnnRates {
		label := rateLabel(rate)
		ops := t.counts["nn.ops."+label]
		var computeNs float64
		for _, name := range uniq(r.names[k]) {
			ns := float64(t.agg(name).totalNs)
			m[name+".ms"] = per(ns/1e6, ops)
			if !strings.HasPrefix(name, "nn.other.") {
				computeNs += ns
			}
		}
		macs, err := modelMACs(r.models[k])
		if err != nil {
			return nil, err
		}
		m["nn."+label+".gmac_per_s"] = per(float64(macs)*cnnBatch*ops, computeNs)
		m["nn."+label+".zero_weight_share"] = zeroWeightShare(r.models[k])
	}
	return m, nil
}

func uniq(names []string) []string {
	var out []string
	for _, n := range names {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// modelMACs returns the multiply-accumulates per frame of the model's FINN
// mapping, the same count the hardware model charges energy for.
func modelMACs(m *model.Model) (int64, error) {
	df, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{})
	if err != nil {
		return 0, err
	}
	var macs int64
	for _, mod := range df.Modules {
		macs += mod.MACs()
	}
	return macs, nil
}

// zeroWeightShare is the share of quantized conv and dense weights that
// are exactly zero.
func zeroWeightShare(m *model.Model) float64 {
	var zeros, total int
	count := func(w *tensor.Tensor, err error) {
		if err != nil {
			return
		}
		for _, v := range w.Data() {
			if v == 0 {
				zeros++
			}
		}
		total += w.Len()
	}
	for _, c := range m.Net.Convs() {
		count(c.EffectiveWeights())
	}
	for _, d := range m.Net.Denses() {
		count(d.EffectiveWeights())
	}
	return per(float64(zeros), float64(total))
}
