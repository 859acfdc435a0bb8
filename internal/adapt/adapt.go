// Package adapt closes the serving loop against distribution shift. The
// Runtime Manager (internal/manager) adapts which pruned version serves,
// but the library itself is frozen at design time — under sustained
// drift every version degrades together and the manager has nothing
// better to switch to. This package watches the measured-accuracy stream
// for sustained deficits (a windowed EWMA with a hold-down, so transient
// spike faults never trigger), kicks off a deterministic background
// retrain of the affected model when one persists, validates the
// retrained candidate against the accuracy evaluator, and hot-swaps it
// into the serving library via a versioned atomic swap — the edge loop
// keeps serving the old version until every serving manager commits the
// new one. Failed candidates (validation failures, probation
// regressions) roll back to the prior version and charge an exponential
// quarantine backoff, mirroring the manager's reconfiguration
// degradation policy.
//
// Everything here runs inside the discrete-event engine's serial loop
// and draws no randomness of its own, so an adaptive chaos run replays
// bit-identically from (plan, seed) at any worker count: same
// detections, same retrained candidates, same swap times.
package adapt

import (
	"fmt"
	"math"

	"repro/internal/library"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config tunes the closed adaptation loop. The zero value is disabled;
// an enabled zero config takes the documented defaults.
type Config struct {
	// Enabled switches the loop on. Disabled runs skip every adapt code
	// path and stay bit-identical to pre-adaptation behaviour.
	Enabled bool
	// Threshold is the sustained accuracy deficit, in points on the [0,1]
	// scale, that arms a detection (default 0.03).
	Threshold float64
	// Retrainer produces candidate libraries; nil uses the analytic
	// SimRetrainer. Set a LibraryRetrainer to run the real
	// train/prune/Generate pipeline (tests do, with tiny models).
	Retrainer Retrainer
}

// RetrainTime is the simulated latency, in seconds, of the background
// retrain + re-prune + re-synthesis before the candidate is ready to
// swap; callers schedule FinishRetrain this long after a detection.
// Serving continues on the old library throughout.
const RetrainTime = 1.0

// Loop constants.
const (
	// detectorWindow is the EWMA time constant of the drift detector in
	// seconds. Samples older than a few windows stop mattering, so a
	// one-sample spike decays instead of triggering.
	detectorWindow = 0.5
	// holdDown is how long, in seconds, the EWMA deficit must stay beyond
	// Threshold before the detection fires — the spike-vs-shift
	// discriminator.
	holdDown = 0.25
	// recoverFraction is the fraction of the detected deficit the default
	// SimRetrainer's candidate wins back.
	recoverFraction = 0.85
	// validateMargin is the minimum recovered accuracy, in points, for a
	// candidate to pass validation; candidates below it are rejected
	// without being swapped in.
	validateMargin = 0.005
	// probation is how long, in seconds, after a swap the detector
	// verifies the recovery. A deficit still beyond Threshold at the end
	// of probation rolls the swap back.
	probation = 1.0
	// quarantineBackoff quarantines detection after a failed retrain or
	// rollback, in seconds, doubling per consecutive failure up to
	// quarantineBackoffMax — the same exponential scheme as the
	// manager's reconfiguration degradation policy.
	quarantineBackoff    = 1.0
	quarantineBackoffMax = 16.0
)

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.03
	}
	return c
}

// validate rejects nonsensical knobs (after defaulting).
func (c Config) validate() error {
	if c.Threshold <= 0 || c.Threshold >= 1 {
		return fmt.Errorf("adapt: threshold %v outside (0,1)", c.Threshold)
	}
	return nil
}

// Retrainer produces a retrained candidate library from the serving one.
// deficit is the detector's current residual accuracy deficit in points.
// It returns the candidate, the accuracy it is expected to win back
// (validated against validateMargin), and an error for synthesis
// failures (treated as a failed retrain: rollback + quarantine backoff).
// Implementations must be deterministic — same inputs, same candidate —
// or replays stop being bit-identical.
type Retrainer interface {
	Retrain(lib *library.Library, deficit float64) (cand *library.Library, recovered float64, err error)
}

// SimRetrainer is the analytic default retrainer for simulation runs: the
// candidate is a version-bumped clone of the serving library and wins
// back Fraction of the deficit. It models the outcome of retraining on
// post-shift data without paying Generate's wall-clock cost per swap; the
// real pipeline is LibraryRetrainer.
type SimRetrainer struct {
	// Fraction of the deficit the candidate recovers, in [0,1].
	Fraction float64
}

// Retrain implements Retrainer.
func (r SimRetrainer) Retrain(lib *library.Library, deficit float64) (*library.Library, float64, error) {
	return Rebuild(lib), r.Fraction * deficit, nil
}

// Rebuild returns a shallow clone of lib with its version bumped. The
// entries slice is copied so readers still holding the old version never
// observe the candidate mutating under them — published libraries are
// immutable, swaps replace pointers.
func Rebuild(lib *library.Library) *library.Library {
	c := *lib
	c.Entries = append([]library.Entry(nil), lib.Entries...)
	c.Version = lib.Version + 1
	return &c
}

// state is the loop's phase.
type state int

const (
	stateIdle state = iota
	stateRetraining
	stateSwapPending
	stateProbation
)

// Loop is the closed adaptation loop of one serving run: detector state,
// the retrain/swap/probation state machine, and the recovery accounting.
// It is driven entirely from the simulation's serial event loop and is
// not safe for concurrent use.
type Loop struct {
	cfg       Config
	retrainer Retrainer
	tr        *obs.Trace

	lib *library.Library // committed serving version

	// Detector: EWMA of (measured − expected) with time constant
	// detectorWindow.
	ewma       float64
	haveEwma   bool
	lastT      float64
	belowSince float64
	haveBelow  bool
	alphas     alphaMemo

	st      state
	deficit float64 // EWMA deficit captured at detection

	// comp is the active compensation in accuracy points: how much of the
	// shift the committed retrained versions win back. It accumulates
	// across rounds, so a deepening ramp is chased by successive
	// detect → retrain → swap cycles.
	comp     float64
	applied  float64 // compensation actually applied to the last sample
	pending  *library.Library
	pendComp float64
	pendBack bool // pending is a rollback re-install of prevLib
	prevLib  *library.Library
	prevComp float64

	probationUntil  float64
	quarantineUntil float64
	consecFails     int

	stats        metrics.AdaptStats
	compWeighted float64
	frames       float64
}

// NewLoop builds the loop for a run serving lib. The tracer may be nil.
func NewLoop(cfg Config, lib *library.Library, tr *obs.Trace) (*Loop, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if lib == nil {
		return nil, fmt.Errorf("adapt: nil serving library")
	}
	rt := cfg.Retrainer
	if rt == nil {
		rt = SimRetrainer{Fraction: recoverFraction}
	}
	return &Loop{
		cfg: cfg, retrainer: rt, tr: tr, lib: lib,
		quarantineUntil: math.Inf(-1), lastT: math.Inf(-1),
	}, nil
}

// Compensate applies the active compensation to a sustained-shift delta
// and returns the residual. Compensation never overshoots: it offsets at
// most the shift actually present in this sample, so when a drift window
// closes the measured accuracy returns to nominal instead of above it.
// Call once per accounting sample, before Observe.
func (l *Loop) Compensate(sd float64) float64 {
	l.applied = 0
	if sd >= 0 || l.comp <= 0 {
		return sd
	}
	a := l.comp
	if a > -sd {
		a = -sd
	}
	l.applied = a
	return sd + a
}

// Account charges n processed frames against the compensation applied to
// the current sample, for the recovered-points stat. Call after
// Compensate with the frames the sample covers.
func (l *Loop) Account(n float64) {
	if n <= 0 {
		return
	}
	l.frames += n
	l.compWeighted += l.applied * n
}

// alphaMemo holds the EWMA weights α = 1 − exp(−dt/detectorWindow) of
// recent sample gaps dt, keyed on dt's bits. A run's samples come at a few
// distinct gaps, so nearly every Observe finds its α here instead of
// calling math.Exp, and gets the very bits the expression gives. The
// multiplicative hash spreads gaps that differ only in low mantissa
// bits; key 0 (dt = +0, never observed) marks an empty slot.
type alphaMemo struct {
	keys [16]uint64
	vals [16]float64
}

// of returns 1 − exp(−dt/detectorWindow) for dt > 0.
func (m *alphaMemo) of(dt float64) float64 {
	k := math.Float64bits(dt)
	i := k * 0x9E3779B97F4A7C15 >> 60
	if m.keys[i] != k {
		m.keys[i], m.vals[i] = k, 1-math.Exp(-dt/detectorWindow)
	}
	return m.vals[i]
}

// Observe feeds one measured-accuracy sample at time now (expected is the
// serving entry's nominal accuracy; measured already includes fault
// deltas and compensation). It returns true when sustained drift was just
// detected — the caller must then schedule FinishRetrain at
// now + RetrainTime to complete the background retrain.
func (l *Loop) Observe(now, measured, expected float64) bool {
	x := measured - expected
	if !l.haveEwma {
		l.ewma, l.haveEwma = x, true
	} else if dt := now - l.lastT; dt > 0 {
		l.ewma += (x - l.ewma) * l.alphas.of(dt)
	}
	l.lastT = now

	switch l.st {
	case stateRetraining, stateSwapPending:
		return false
	case stateProbation:
		if now < l.probationUntil {
			return false
		}
		if l.ewma <= -l.cfg.Threshold {
			l.rollback(now, "probation")
		} else {
			// Recovery verified: the swap sticks, failures reset.
			l.st = stateIdle
			l.consecFails = 0
			l.prevLib = nil
		}
		return false
	}

	// Idle: arm and fire the hold-down.
	if l.ewma <= -l.cfg.Threshold && now >= l.quarantineUntil {
		if !l.haveBelow {
			l.belowSince, l.haveBelow = now, true
		}
		if now-l.belowSince >= holdDown {
			l.haveBelow = false
			l.deficit = -l.ewma
			l.st = stateRetraining
			l.stats.Detections++
			if l.tr.Enabled() {
				l.tr.Emit(now, obs.AdaptCat, "drift-detected",
					obs.F("deficit", l.deficit),
					obs.F("threshold", l.cfg.Threshold),
					obs.I("version", l.lib.Version))
				l.tr.Emit(now, obs.AdaptCat, "retrain-start",
					obs.F("eta_s", RetrainTime),
					obs.I("version", l.lib.Version))
			}
			return true
		}
	} else {
		l.haveBelow = false
	}
	return false
}

// FinishRetrain completes the background retrain scheduled at detection:
// it produces the candidate, validates the recovery against
// validateMargin, and stages the candidate for the hot swap. A candidate
// that fails synthesis or validation is rejected — rollback accounting,
// quarantine backoff — without ever being served.
func (l *Loop) FinishRetrain(now float64) {
	if l.st != stateRetraining {
		return
	}
	l.stats.Retrains++
	// Chase the live estimate: a ramp that kept deepening during the
	// retrain is compensated at its current depth, not the stale
	// detection-time one. The EWMA tracks the residual (compensation
	// already applied), so rounds compose additively.
	deficit := -l.ewma
	if deficit < l.deficit {
		deficit = l.deficit
	}
	cand, recovered, err := l.retrainer.Retrain(l.lib, deficit)
	if err != nil || cand == nil || recovered < validateMargin {
		l.rollback(now, "validation")
		return
	}
	l.pending = cand
	l.pendComp = l.comp + recovered
	l.pendBack = false
	l.st = stateSwapPending
}

// PendingSwap returns the validated candidate awaiting installation (nil
// when none). The caller offers it to the serving side's LibrarySwapper
// and reports a committed swap via Committed; a refused swap (manager
// mid-reconfiguration, pool boards stalled) is simply re-offered at the
// next sample — serving never stops.
func (l *Loop) PendingSwap() *library.Library {
	if l.st != stateSwapPending {
		return nil
	}
	return l.pending
}

// Committed tells the loop its pending candidate is now serving
// everywhere. Forward swaps enter probation; rollback re-installs of the
// prior version return to idle (still quarantined).
func (l *Loop) Committed(now float64) {
	if l.st != stateSwapPending || l.pending == nil {
		return
	}
	// The serving library just changed, so the detector's memory is about
	// a version no longer serving: restart the EWMA from the first
	// post-swap sample. Probation then judges the recovery itself, not the
	// decaying tail of the pre-swap deficit.
	l.haveEwma = false
	if l.pendBack {
		l.lib, l.comp = l.pending, l.pendComp
		l.pending, l.pendBack = nil, false
		l.prevLib = nil
		l.st = stateIdle
		return
	}
	l.prevLib, l.prevComp = l.lib, l.comp
	l.lib, l.comp = l.pending, l.pendComp
	l.pending = nil
	l.stats.Swaps++
	l.st = stateProbation
	l.probationUntil = now + probation
	if l.tr.Enabled() {
		l.tr.Emit(now, obs.AdaptCat, "swap-commit",
			obs.I("version", l.lib.Version),
			obs.F("compensation", l.comp))
	}
}

// rollback charges one failed retrain round: quarantine detection with
// exponential backoff (doubling per consecutive failure, capped at
// quarantineBackoffMax — the manager's degradation scheme), and, after a
// probation regression, stage the prior version for re-install through
// the same deferred-safe swap path the forward swap used.
func (l *Loop) rollback(now float64, why string) {
	l.stats.Rollbacks++
	l.consecFails++
	shift := l.consecFails - 1
	if shift > 62 {
		shift = 62
	}
	backoff := quarantineBackoff * float64(int64(1)<<shift)
	if backoff > quarantineBackoffMax {
		backoff = quarantineBackoffMax
	}
	l.quarantineUntil = now + backoff
	l.haveBelow = false
	if l.tr.Enabled() {
		l.tr.Emit(now, obs.AdaptCat, "rollback",
			obs.S("reason", why),
			obs.I("consecutive_failures", l.consecFails),
			obs.F("backoff_s", backoff),
			obs.I("version", l.lib.Version))
	}
	if why == "probation" && l.prevLib != nil {
		l.pending = l.prevLib
		l.pendComp = l.prevComp
		l.pendBack = true
		l.st = stateSwapPending
		return
	}
	l.pending, l.pendBack = nil, false
	l.st = stateIdle
}

// Stats returns the run counters with RecoveredPoints resolved to the
// processed-weighted mean compensation.
func (l *Loop) Stats() metrics.AdaptStats {
	s := l.stats
	if l.frames > 0 {
		s.RecoveredPoints = l.compWeighted / l.frames
	}
	return s
}
