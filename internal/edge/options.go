package edge

import "repro/internal/obs"

// RunOption customizes a simulation run beyond SimConfig with a
// cross-cutting concern (today only tracing) as a functional option
// instead of a config field. Run and RunRepeated take a trailing
// ...RunOption.
type RunOption func(*runOptions)

// runOptions is the resolved option set. Its zero value reproduces the
// un-optioned behaviour exactly.
type runOptions struct {
	tracer *obs.Trace
}

func applyRunOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithTracer attaches an observability trace to the run: the engine, the
// fault injector, the serving loop, and (via TracerAware) the controller's
// Runtime Manager all emit through it. Tracing is passive — results are
// bit-identical with or without it. A nil trace is ignored.
func WithTracer(tr *obs.Trace) RunOption {
	return func(o *runOptions) { o.tracer = tr }
}

// TracerAware is implemented by controllers that can propagate the run's
// tracer into their decision core (the AdaFlow controller forwards it to
// its Runtime Manager, so "manager/decide" events carry every verdict).
type TracerAware interface {
	SetTracer(tr *obs.Trace)
}

// Module indices of the serving loop's event classes, for the per-module
// dispatch counters emitted as "sim/module" events.
const (
	modWorkload = iota
	modStep
	modThreshold
	modRetry
	modArrival
	modService
	modStallWake
	modHeartbeat
	numModules
)

var moduleNames = [numModules]string{
	modWorkload:  "workload",
	modStep:      "accounting",
	modThreshold: "threshold",
	modRetry:     "reconfig-retry",
	modArrival:   "arrival",
	modService:   "service",
	modStallWake: "stall-wake",
	modHeartbeat: "heartbeat",
}

// moduleMeter counts dispatched events per serving-loop module. It is nil
// when tracing is off, so the untraced hot path pays only a nil check.
type moduleMeter struct {
	counts [numModules]int
}

func (m *moduleMeter) hit(mod int) {
	if m != nil {
		m.counts[mod]++
	}
}

// emit reports one "sim/module" event per module that fired.
func (m *moduleMeter) emit(tr *obs.Trace, now float64) {
	if m == nil {
		return
	}
	total := 0
	for _, c := range m.counts {
		total += c
	}
	for mod, c := range m.counts {
		if c == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(c) / float64(total)
		}
		tr.Emit(now, obs.SimCat, "module",
			obs.S("module", moduleNames[mod]),
			obs.I("events", c),
			obs.F("share", share))
	}
}
