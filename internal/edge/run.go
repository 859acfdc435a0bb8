package edge

import (
	"fmt"
	"time"

	"repro/internal/adapt"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// servingModel is what differs between the two simulation modes: how
// frames move through the server between the run's control events. The
// fluid model accounts frames analytically in fixed steps; the event
// model (SimConfig.EventLevel) queues and serves every frame as its own
// DES event.
// Everything else — workload, fault injector, tracer and controller
// wiring, reactions with their retry and cancel logic, the adaptation
// loop, and the redraw, threshold and heartbeat events — is the shared run
// skeleton below, so a disagreement between the modes can only come from
// the model.
type servingModel interface {
	// start schedules the model's own events (steps or frame arrivals).
	start() error
	// beforeReact runs ahead of every controller reaction at now.
	beforeReact(now float64)
	// stalled runs when a reconfiguration stall first extends to until.
	stalled(until float64)
	// boardsChanged runs after a heartbeat changed the serving topology
	// and the run reacted to it.
	boardsChanged()
	// drain runs the engine to the end of the run and closes the model's
	// own accounting.
	drain()
}

// run is one simulation: the shared skeleton both serving models plug
// into. Its state is touched only from the engine's serial event loop.
type run struct {
	scn    Scenario
	cfg    SimConfig
	ctl    Controller
	eng    *sim.Engine
	wl     *Workload
	inj    *fault.Injector
	tr     *obs.Trace
	traced bool
	meter  *moduleMeter // nil when untraced
	model  servingModel

	ra      ReconfigAware // nil when the controller cannot survive a failed reconfiguration
	al      *adapt.Loop   // nil unless cfg.Adapt.Enabled
	swapper LibrarySwapper
	// ctlBatches is set when the controller dispatches through its own
	// batch queues (multiedge pools) and so owns the batch accounting;
	// the serving models count batches only for plain controllers, since
	// counting both would count every frame twice.
	ctlBatches bool

	acc        metrics.Accumulator
	res        Result
	serving    Serving
	stallUntil float64
	// Exact per-frame latency, when the model measures it.
	latencySum, latencyN float64

	retryH    sim.Handle
	haveRetry bool
	// Hoisted event bodies: one closure per run instead of one per event.
	retryFn, redrawFn, beatFn func()
	sup                       BoardSupervisor
	beatK                     int

	// err is the first scheduling failure; the run reports it at the end.
	err error
}

// Run simulates one scenario run with the given controller. The fluid
// model (the zero SimConfig) accounts frames analytically in fixed steps
// of fluidStep; cfg.EventLevel serves every frame as its own DES event.
// Trailing RunOptions attach cross-cutting behaviour (WithTracer); with
// no options the behaviour is exactly the historical one.
func Run(scn Scenario, ctl Controller, cfg SimConfig, opts ...RunOption) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	if ctl == nil {
		return nil, fmt.Errorf("edge: nil controller")
	}
	r := &run{scn: scn, cfg: cfg, ctl: ctl, eng: sim.NewEngine()}
	if cfg.EventLevel {
		r.model = &eventModel{run: r}
	} else {
		r.model = &fluidModel{run: r}
	}
	r.tr = applyRunOptions(opts).tracer
	r.traced = r.tr.Enabled()
	if r.traced {
		r.meter = &moduleMeter{}
	}
	var err error
	if r.wl, err = NewWorkload(scn, sim.RNG(cfg.Seed, "workload/"+scn.Name)); err != nil {
		return nil, err
	}
	if r.inj, err = fault.NewInjector(cfg.FaultConfig.Plan, cfg.FaultConfig.Seed); err != nil {
		return nil, err
	}
	if r.tr != nil {
		r.eng.SetTracer(r.tr)
		r.inj.SetTracer(r.tr)
		if ta, ok := ctl.(TracerAware); ok {
			ta.SetTracer(r.tr)
		}
	}
	r.ra, _ = ctl.(ReconfigAware)
	_, r.ctlBatches = ctl.(BatchStatsReporter)

	// Closed adaptation loop: detector + retrain/swap state machine. All
	// of its transitions happen inside the engine's serial event loop, so
	// adaptive runs replay bit-identically at any worker count.
	if cfg.Adapt.Enabled {
		sw, ok := ctl.(LibrarySwapper)
		if !ok {
			return nil, fmt.Errorf("edge: Adapt requires a controller with a swappable library, got %T", ctl)
		}
		r.swapper = sw
		if r.al, err = adapt.NewLoop(cfg.Adapt, sw.ServingLibrary(), r.tr); err != nil {
			return nil, err
		}
	}

	r.serving, _, _, _ = ctl.React(0, r.wl.Rate()) // initial load is free for every controller
	if r.al != nil && r.ra != nil {
		// The initial load is assumed to succeed (it is free and cannot
		// fail), but the managers still hold its rollback snapshot — and a
		// manager refuses a library swap while a reconfiguration outcome is
		// outstanding. Commit the initial load so a swap on a controller
		// that never reconfigures again (a lightly-loaded pool) is not
		// refused forever. Only done on adaptive runs to keep the disabled
		// path's traces byte-identical.
		r.ra.ReconfigSucceeded(0)
	}

	r.retryFn = func() {
		r.meter.hit(modRetry)
		r.react(r.eng.Now())
	}
	if err := r.scheduleThresholds(); err != nil {
		return nil, err
	}
	r.redrawFn = func() {
		r.meter.hit(modWorkload)
		now := r.eng.Now()
		r.wl.Redraw(now)
		r.react(now)
		r.scheduleRedraw(now)
	}
	r.scheduleRedraw(0)
	// Board supervision heartbeats: deterministic seeded ticks that let a
	// supervising controller draw board faults and advance health state.
	if sup, ok := ctl.(BoardSupervisor); ok {
		r.sup, r.beatK = sup, 1
		r.beatFn = func() {
			r.meter.hit(modHeartbeat)
			now := r.eng.Now()
			if r.sup.Heartbeat(now, r.inj) {
				r.react(now)
				r.model.boardsChanged()
			}
			r.beatK++
			r.scheduleBeat()
		}
		r.scheduleBeat()
	}
	if err := r.model.start(); err != nil {
		return nil, err
	}

	r.model.drain()
	if r.err != nil {
		return nil, r.err
	}
	return r.finish(), nil
}

// at schedules fn at t, keeping the first failure for the run to report.
func (r *run) at(t float64, fn func()) { r.fail(r.eng.Schedule(t, fn)) }

// fail keeps err when it is the run's first failure.
func (r *run) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// scheduleThresholds queues the scheduled user threshold changes (the
// paper: the manager acts on threshold changes too).
func (r *run) scheduleThresholds() error {
	for _, tc := range r.cfg.ThresholdChanges {
		if tc.Time <= 0 || tc.Time >= r.scn.Duration {
			return fmt.Errorf("edge: threshold change at %v outside run", tc.Time)
		}
		ts, ok := r.ctl.(ThresholdSetter)
		if !ok {
			return fmt.Errorf("edge: controller %T cannot change thresholds", r.ctl)
		}
		if err := r.eng.Schedule(tc.Time, func() {
			r.meter.hit(modThreshold)
			if err := ts.SetAccuracyThreshold(tc.Threshold); err != nil {
				r.fail(err)
				return
			}
			r.react(r.eng.Now())
		}); err != nil {
			return err
		}
	}
	return nil
}

// scheduleRedraw queues the next workload boundary after t.
func (r *run) scheduleRedraw(t float64) {
	if next := r.wl.NextBoundary(t); next < r.scn.Duration {
		r.at(next, r.redrawFn)
	}
}

// scheduleBeat queues heartbeat beatK. Beats land on exact multiples of
// the interval (no float accumulation), so narrow fault windows behave
// predictably.
func (r *run) scheduleBeat() {
	if next := float64(r.beatK) * HeartbeatInterval; next < r.scn.Duration {
		r.at(next, r.beatFn)
	}
}

// extendStall pushes the reconfiguration stall out to now+stall.
func (r *run) extendStall(now float64, stall time.Duration) {
	if stall <= 0 {
		return
	}
	if until := now + stall.Seconds(); until > r.stallUntil {
		r.stallUntil = until
		r.model.stalled(until)
	}
}

// react asks the controller for a serving configuration at now and
// applies it, injecting reconfiguration faults on the way.
func (r *run) react(now float64) {
	r.model.beforeReact(now)
	// A fresh reaction supersedes any pending reconfiguration retry.
	if r.haveRetry {
		r.eng.Cancel(r.retryH)
		r.haveRetry = false
	}
	rate, ok := r.inj.Observe(now, r.wl.Rate())
	if !ok {
		return // sensor dropout: pin the last-known-good configuration
	}
	s, stall, switched, reconf := r.ctl.React(now, rate)
	if reconf && r.ra != nil {
		out := r.inj.Reconfig(now)
		if out.Failed {
			// The stall is paid but the bitstream never loads: the
			// controller rolls back, the old configuration keeps serving,
			// and we retry after a bounded backoff.
			retry, degraded := r.ra.ReconfigFailed(now)
			r.extendStall(now, stall)
			r.res.FaultEvents = append(r.res.FaultEvents, FaultEvent{Time: now, Kind: "reconfig-fail", Detail: s.Label})
			if degraded {
				r.acc.Faults.Degradations++
				r.res.FaultEvents = append(r.res.FaultEvents, FaultEvent{Time: now, Kind: "degraded", Detail: "retry budget exhausted; fixed banned"})
			}
			if at := now + stall.Seconds() + retry.Seconds(); at < r.scn.Duration {
				h, err := r.eng.ScheduleCancelable(at, r.retryFn)
				r.retryH, r.haveRetry = h, err == nil
				r.fail(err)
			}
			return
		}
		if out.StallFactor > 1 {
			stall = time.Duration(float64(stall) * out.StallFactor)
			r.res.FaultEvents = append(r.res.FaultEvents, FaultEvent{Time: now, Kind: "reconfig-stall", Detail: s.Label})
		}
		r.ra.ReconfigSucceeded(now)
	}
	if switched || reconf {
		r.extendStall(now, stall)
		r.res.Switches = append(r.res.Switches, SwitchEvent{Time: now, Label: s.Label, Reconfigured: reconf})
		if switched {
			r.acc.Switches++
		}
		if reconf {
			r.acc.Reconfigs++
		}
		if r.traced {
			r.tr.Emit(now, obs.EdgeCat, "switch",
				obs.S("label", s.Label),
				obs.B("reconf", reconf),
				obs.F("stall_s", stall.Seconds()))
		}
	}
	r.serving = s
}

// measure returns the measured accuracy of frames frames served at
// nominal accuracy at now. The evaluator drift d and sustained input
// shift sd perturb the measurement, not the true serving accuracy; when
// adapting, the measurement also feeds the detector, schedules the
// background retrain on detection, and re-offers any validated candidate.
func (r *run) measure(now, nominal, frames, d, sd float64) float64 {
	if r.al != nil {
		sd = r.al.Compensate(sd)
	}
	measured := nominal
	if d+sd != 0 {
		measured += d + sd
		if measured < 0 {
			measured = 0
		} else if measured > 1 {
			measured = 1
		}
	}
	if r.al != nil {
		r.al.Account(frames)
		if r.al.Observe(now, measured, nominal) {
			r.at(now+adapt.RetrainTime, func() { r.al.FinishRetrain(r.eng.Now()) })
		}
		if p := r.al.PendingSwap(); p != nil && r.swapper.SwapLibrary(now, p) {
			r.al.Committed(now)
		}
	}
	return measured
}

// finish collects the run's counters into its Result.
func (r *run) finish() *Result {
	c := r.inj.Counts()
	f := &r.acc.Faults // Degradations is counted by react
	f.ReconfigFailures, f.ReconfigStalls = c.ReconfigFailures, c.ReconfigStalls
	f.SensorDropouts, f.SensorSpikes = c.SensorDropouts, c.SensorSpikes
	f.AccuracyDrifts, f.SustainedDrifts = c.AccuracyDrifts, c.SustainedDrifts
	f.BoardCrashes, f.BoardHangs = c.BoardCrashes, c.BoardHangs
	f.FrameCorruptions, f.BoardBrownouts = c.FrameCorruptions, c.BoardBrownouts
	if r.al != nil {
		r.acc.Adapt = r.al.Stats()
	}
	if rep, ok := r.ctl.(PoolStatsReporter); ok {
		r.acc.Pool = rep.PoolStats()
	}
	if rep, ok := r.ctl.(BatchStatsReporter); ok {
		r.acc.Batch.Merge(rep.DrainBatchStats())
	}
	res := &r.res
	res.RunStats = r.acc.Finalize()
	if r.latencyN > 0 {
		res.AvgLatencyMS = r.latencySum / r.latencyN * 1e3
	}
	if r.traced {
		d := r.scn.Duration
		r.meter.emit(r.tr, d)
		r.tr.Emit(d, obs.EdgeCat, "run",
			obs.F("arrived", res.Arrived),
			obs.F("processed", res.Processed),
			obs.F("dropped", res.Dropped),
			obs.F("qoe_pct", res.QoEPct),
			obs.F("avg_latency_ms", res.AvgLatencyMS),
			obs.I("switches", res.RunStats.Switches),
			obs.I("reconfigs", res.Reconfigs))
	}
	return res
}
