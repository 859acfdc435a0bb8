package edge

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/synth"
)

// Serving is the server's active configuration: how fast it can process,
// at what accuracy, and how much power it draws. The power model is data,
// copied when the configuration is made, so a Serving keeps charging its
// own configuration's power after the controller has moved on.
type Serving struct {
	FPS      float64
	Accuracy float64
	// Power is the accelerator's power curve.
	Power synth.PowerCurve
	// Boards, when not empty, replaces Power with one curve per serving
	// board of a pool, which splits the processed rate evenly.
	Boards []synth.PowerCurve
	// IdlePower is drawn while stalled (reconfiguring).
	IdlePower float64
	Label     string
}

// PowerAt returns watts at a given processed frame rate: Power's, or for
// a pool the sum in board order of each board's power at its even share.
// The zero Serving draws nothing.
func (s *Serving) PowerAt(processedFPS float64) float64 {
	if len(s.Boards) == 0 {
		return s.Power.At(processedFPS)
	}
	var total float64
	for i := range s.Boards {
		total += s.Boards[i].At(processedFPS / float64(len(s.Boards)))
	}
	return total
}

// Controller reacts to workload observations and configures serving.
type Controller interface {
	// React is invoked at t=0 and at every workload change. It returns
	// the serving configuration, the stall needed to apply it (zero when
	// unchanged), and whether the change was a model switch and/or an
	// FPGA reconfiguration.
	React(now, incomingFPS float64) (s Serving, stall time.Duration, switched, reconfigured bool)
}

// TracePoint is one accounting step of a run (for the Fig. 6 curves).
type TracePoint struct {
	Time         float64
	IncomingFPS  float64
	ProcessedFPS float64
	LossPct      float64 // cumulative frame loss up to this point
	InstLossPct  float64 // loss within this step
	QoEPct       float64 // cumulative QoE up to this point
	Accuracy     float64
	PowerW       float64
	// Cumulative frame counters up to and including this step. They are
	// monotone nondecreasing by construction; the chaos invariant tests
	// assert that no fault plan can break that.
	ArrivedCum   float64
	ProcessedCum float64
	DroppedCum   float64
}

// SwitchEvent records a model/accelerator change (Fig. 6(a) annotations).
type SwitchEvent struct {
	Time         float64
	Label        string
	Reconfigured bool
}

// FaultEvent annotates one structural injected fault in a run's timeline
// (reconfiguration failures/stalls and degradations; the high-frequency
// sensor and drift faults are only counted, in RunStats.Faults).
type FaultEvent struct {
	Time   float64
	Kind   string // "reconfig-fail", "reconfig-stall", "degraded"
	Detail string
}

// Result of one simulated run. (The aggregate fault counters live in the
// embedded RunStats.Faults; FaultEvents is the per-event timeline.)
type Result struct {
	metrics.RunStats
	Trace       []TracePoint
	Switches    []SwitchEvent
	FaultEvents []FaultEvent
}

// AdmissionConfig groups the admission-control knobs: how many frames
// the server buffers and how stale a frame may get before it is shed.
type AdmissionConfig struct {
	// QueueFrames is the server's frame buffer (default 16, ≈27 ms at the
	// nominal 600 FPS).
	QueueFrames float64
	// Deadline, when positive, is the admission-control deadline in
	// seconds: frames that cannot be served within it are shed with cause
	// deadline-exceeded instead of being served stale. Zero disables
	// deadline shedding (the historical behaviour).
	Deadline float64
}

// BatchConfig groups the micro-batching knobs.
type BatchConfig struct {
	// Size, when > 1, enables micro-batched service: up to Size frames
	// are served per dispatch so per-dispatch fixed costs amortize over
	// the batch. A batch is cut short before it would push its oldest
	// frame past the deadline, so batching introduces no new drop causes
	// and never misses a deadline that single-frame serving would make.
	// Size <= 1 keeps the historical single-frame path bit-identical.
	// Event-level runs reserve one frame time at the current serving
	// rate as deadline slack when deciding how many frames still fit.
	Size int
}

// FaultConfig groups the chaos-injection knobs.
type FaultConfig struct {
	// Plan, when non-nil, injects the planned faults during the run.
	Plan *fault.Plan
	// Seed drives the fault RNG streams (independent of the workload
	// seed, so the same workload can be replayed under different chaos
	// draws). Runs with equal plans and seeds replay bit-identically.
	Seed int64
}

// SimConfig tunes the run mechanics. The admission, batching, and fault
// knobs live in the embedded AdmissionConfig/BatchConfig/FaultConfig
// groups; their fields read through promotion (cfg.Deadline), and
// composite literals set them through the group
// (AdmissionConfig: AdmissionConfig{Deadline: 0.1}).
type SimConfig struct {
	AdmissionConfig
	BatchConfig
	FaultConfig

	// Adapt groups the closed-loop drift-recovery knobs (internal/adapt):
	// the detection threshold and the retrainer. It requires a controller
	// implementing LibrarySwapper when enabled. Disabled (the zero value)
	// keeps runs bit-identical to pre-adaptation behaviour.
	Adapt adapt.Config

	// Seed drives the workload RNG. (FaultConfig.Seed, shadowed by this
	// field, drives the fault streams.)
	Seed int64
	// RecordTrace keeps per-step curves (off for bulk averaging).
	RecordTrace bool
	// EventLevel serves every frame as its own DES event instead of
	// accounting frames in fluid steps (the zero value). It is the
	// reference the fluid model is validated against, and the only model
	// that measures exact per-frame latency.
	EventLevel bool
	// PoissonArrivals makes EventLevel runs draw exponential inter-arrival
	// gaps instead of deterministic spacing (burstier traffic). Fluid runs
	// ignore it.
	PoissonArrivals bool
	// ThresholdChanges schedules user accuracy-threshold updates during
	// the run (delivered to controllers implementing ThresholdSetter).
	ThresholdChanges []ThresholdChange
}

// ThresholdChange is one scheduled user update of the accuracy threshold.
type ThresholdChange struct {
	Time      float64
	Threshold float64
}

// ThresholdSetter is implemented by controllers whose accuracy threshold
// can change at run time (the AdaFlow controller delegates to its Runtime
// Manager).
type ThresholdSetter interface {
	SetAccuracyThreshold(threshold float64) error
}

// LibrarySwapper is implemented by controllers whose serving library can
// be hot-swapped at run time — the serving half of the closed adaptation
// loop (internal/adapt). The AdaFlow controller delegates to its Runtime
// Manager; the multiedge pool installs the candidate per board during
// heartbeats. SwapLibrary must install lib atomically with respect to
// serving decisions and return true only once every serving manager has
// committed it; false defers the swap (a manager mid-reconfiguration, a
// board paying a stall) and the run re-offers the same candidate at the
// next accounting sample, so serving never stops and no frame is ever
// served against a half-swapped candidate set.
type LibrarySwapper interface {
	SwapLibrary(now float64, lib *library.Library) bool
	// ServingLibrary returns the library serving decisions are made from.
	ServingLibrary() *library.Library
}

// ReconfigAware is implemented by controllers that can survive a failed
// FPGA reconfiguration. When React reports reconfigured=true and the
// injected reconfiguration fails, the run calls ReconfigFailed: the
// controller must restore its pre-decision state (the old configuration
// keeps serving) and return the backoff before the next attempt, plus
// whether it just exhausted its retry budget and degraded to the
// Flexible accelerator. A reconfiguration that completes is closed with
// ReconfigSucceeded. Controllers without this interface are served
// fault-free on the reconfiguration path (sensor and drift faults still
// apply).
type ReconfigAware interface {
	ReconfigFailed(now float64) (retry time.Duration, degraded bool)
	ReconfigSucceeded(now float64)
}

// HeartbeatInterval is the board-supervision period in seconds: runs beat
// a BoardSupervisor at its multiples, and the multiedge pool and the
// cluster scheduler count board health and time in the same beats.
const HeartbeatInterval = 0.1

// BoardSupervisor is implemented by controllers that supervise a fleet of
// boards (the multiedge pool). The run schedules a deterministic heartbeat
// every HeartbeatInterval seconds; each beat hands the controller the run's
// fault injector so it can draw board-level outcomes (crash, hang,
// corruption, brownout) from the seeded streams and advance its health
// state machines. Heartbeat returns true when the serving topology changed
// (a board died, recovered, or was promoted), which triggers a fresh
// React so the run picks up the new aggregate Serving.
type BoardSupervisor interface {
	// Heartbeat advances board health at simulation time now.
	Heartbeat(now float64, inj *fault.Injector) (changed bool)
}

// PoolStatsReporter is implemented by controllers that track fleet-level
// supervision counters; the run copies them into RunStats.Pool.
type PoolStatsReporter interface {
	PoolStats() metrics.PoolStats
}

// BatchStatsReporter is implemented by controllers that run their own
// micro-batched dispatchers (the multiedge pool's per-board batch
// queues). DrainBatchStats returns the counters accumulated since the
// previous drain and resets them; the run merges the delta into
// RunStats.Batch, so a persistent controller served through a sequence of
// epoch-windowed runs contributes every batch exactly once.
type BatchStatsReporter interface {
	DrainBatchStats() metrics.BatchStats
}

// Validate reports the first knob a run cannot honour. A zero
// QueueFrames is valid: it selects the default of 16. It rejects:
//   - a NaN or negative QueueFrames (+Inf is an unbounded queue);
//   - a NaN or +Inf Deadline;
//   - a scheduled threshold change to a NaN, infinite or negative
//     threshold.
//
// It keeps the documented meanings of the other values: a Deadline ≤ 0
// disables deadline admission, and a BatchConfig.Size ≤ 1 serves single
// frames.
func (c *SimConfig) Validate() error {
	switch {
	case math.IsNaN(c.QueueFrames) || c.QueueFrames < 0:
		return fmt.Errorf("edge: QueueFrames %v must be non-negative", c.QueueFrames)
	case math.IsNaN(c.Deadline) || math.IsInf(c.Deadline, 1):
		return fmt.Errorf("edge: Deadline %v must be finite (≤ 0 disables it)", c.Deadline)
	}
	for _, tc := range c.ThresholdChanges {
		if err := manager.CheckThreshold(tc.Threshold); err != nil {
			return fmt.Errorf("edge: threshold change at %v: %w", tc.Time, err)
		}
	}
	return nil
}

func (c *SimConfig) defaults() {
	if c.QueueFrames == 0 {
		// A short buffer (≈27 ms at the nominal 600 FPS): the paper's
		// servers drop frames they cannot serve promptly, so bursts above
		// capacity translate into loss rather than deep queueing.
		c.QueueFrames = 16
	}
}

// RunRepeated averages n runs with seeds seed, seed+1, … and returns the
// mean stats plus the individual runs, in the serving model cfg selects.
// Runs are independent simulations (each gets its own controller, RNG,
// engine, and fault injector over a read-only scenario and library), so
// they execute concurrently over up to MaxParallelRuns goroutines;
// per-run stats land in seed-indexed slots and the mean is taken in seed
// order, making the result identical to the serial loop. Controllers are
// still constructed serially in seed order — mk closures are not required
// to be concurrency-safe.
func RunRepeated(scn Scenario, mk func() (Controller, error), n int, seed int64, cfg SimConfig, opts ...RunOption) (metrics.RunStats, []metrics.RunStats, error) {
	if n <= 0 {
		return metrics.RunStats{}, nil, fmt.Errorf("edge: non-positive run count %d", n)
	}
	o := applyRunOptions(opts)
	ctls := make([]Controller, n)
	for i := range ctls {
		ctl, err := mk()
		if err != nil {
			return metrics.RunStats{}, nil, err
		}
		ctls[i] = ctl
	}
	runs := make([]metrics.RunStats, n)
	err := parallel.ForEachErr(n, MaxParallelRuns(), func(i int) error {
		c := cfg
		c.Seed = seed + int64(i)
		c.FaultConfig.Seed = cfg.FaultConfig.Seed + int64(i)
		c.RecordTrace = false
		// Each run derives its own tracer child: events share the sink
		// (which must be concurrency-safe) and carry a run=i attribute, so
		// the aggregate snapshot is interleaving-independent.
		ro := opts
		if o.tracer != nil {
			ro = make([]RunOption, len(opts), len(opts)+1)
			copy(ro, opts)
			ro = append(ro, WithTracer(o.tracer.With(obs.I("run", i))))
		}
		r, err := Run(scn, ctls[i], c, ro...)
		if err != nil {
			return err
		}
		runs[i] = r.RunStats
		return nil
	})
	if err != nil {
		return metrics.RunStats{}, nil, err
	}
	mean, err := metrics.Mean(runs)
	return mean, runs, err
}

// StaticController serves one fixed accelerator forever — the paper's
// "Original FINN" baseline.
type StaticController struct {
	S Serving
}

// NewStaticFINN builds the baseline controller from a library's unpruned
// entry.
func NewStaticFINN(lib *library.Library) *StaticController {
	e := &lib.Entries[0]
	return &StaticController{S: Serving{
		FPS:       e.FixedFPS,
		Accuracy:  e.Accuracy,
		Power:     e.FixedPower,
		IdlePower: e.FixedPower.IdleW,
		Label:     "FINN " + lib.ModelName,
	}}
}

// React implements Controller.
func (c *StaticController) React(now, incomingFPS float64) (Serving, time.Duration, bool, bool) {
	return c.S, 0, false, false
}

// AdaFlowController drives serving with the Runtime Manager.
type AdaFlowController struct {
	mgr *manager.Manager
}

// NewAdaFlow wraps a manager.
func NewAdaFlow(mgr *manager.Manager) *AdaFlowController {
	return &AdaFlowController{mgr: mgr}
}

// SetTracer implements TracerAware by forwarding the run's tracer to the
// Runtime Manager, whose Decide then emits "manager/decide" events.
func (c *AdaFlowController) SetTracer(tr *obs.Trace) {
	c.mgr.SetTracer(tr)
}

// SetAccuracyThreshold implements ThresholdSetter by delegating to the
// Runtime Manager.
func (c *AdaFlowController) SetAccuracyThreshold(threshold float64) error {
	return c.mgr.SetAccuracyThreshold(threshold)
}

// ReconfigFailed implements ReconfigAware: the manager rolls back the
// failed decision and returns the retry backoff.
func (c *AdaFlowController) ReconfigFailed(now float64) (time.Duration, bool) {
	return c.mgr.ReconfigFailed(now)
}

// ReconfigSucceeded implements ReconfigAware.
func (c *AdaFlowController) ReconfigSucceeded(now float64) {
	c.mgr.ReconfigSucceeded(now)
}

// SwapLibrary implements LibrarySwapper by delegating to the Runtime
// Manager, which refuses the swap while a reconfiguration is in flight.
func (c *AdaFlowController) SwapLibrary(now float64, lib *library.Library) bool {
	return c.mgr.SwapLibrary(now, lib)
}

// ServingLibrary implements LibrarySwapper.
func (c *AdaFlowController) ServingLibrary() *library.Library {
	return c.mgr.Library()
}

// React implements Controller.
func (c *AdaFlowController) React(now, incomingFPS float64) (Serving, time.Duration, bool, bool) {
	prev, had := c.mgr.Current()
	d, changed := c.mgr.Decide(now, incomingFPS)
	lib := c.mgr.Library()
	s := DecisionServing(lib, d)
	if rate := lib.Entries[d.Entry].NominalRate * 100; d.Kind == manager.Flexible {
		s.Label = fmt.Sprintf("flex p=%.0f%%", rate)
	} else {
		s.Label = fmt.Sprintf("fixed p=%.0f%%", rate)
	}
	if !changed {
		return s, 0, false, false
	}
	switched := !had || prev.Entry != d.Entry
	return s, d.SwitchCost, switched, d.Reconfigured
}

// DecisionServing returns the serving parameters of a Runtime Manager
// decision on lib, without a label: the entry's accuracy, and the frame
// rate, idle power and power curve of the accelerator the decision runs
// on (the shared flexible one for a Flexible decision, the entry's own
// fixed one otherwise). Power is a copy of the curve the library
// tabulated for the entry, so power queries read three numbers and never
// walk a dataflow. Every controller that serves manager decisions maps
// them through here.
func DecisionServing(lib *library.Library, d manager.Decision) Serving {
	e := &lib.Entries[d.Entry]
	if d.Kind == manager.Flexible {
		return Serving{FPS: e.FlexFPS, Accuracy: e.Accuracy,
			Power: e.FlexPower, IdlePower: e.FlexPower.IdleW}
	}
	return Serving{FPS: e.FixedFPS, Accuracy: e.Accuracy,
		Power: e.FixedPower, IdlePower: e.FixedPower.IdleW}
}
