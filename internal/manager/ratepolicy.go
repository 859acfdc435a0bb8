package manager

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/spec"
)

// SwitchPolicy selects the accelerator-family rule — how the manager
// decides between the Fixed-Pruning accelerator (power-efficient, but a
// model switch costs an FPGA reconfiguration) and the Flexible one
// (instant switches, higher power).
type SwitchPolicy int

const (
	// SwitchInterval is the paper's rule (§IV-B2): Fixed only while model
	// switches have been arriving at intervals beyond CriteriaMultiple ×
	// reconfiguration time. The default.
	SwitchInterval SwitchPolicy = iota
	// SwitchRate is the data-rate-aware rule ("Data-Rate-Aware High-Speed
	// CNN Inference on FPGAs"): track an EWMA of the sustained input rate
	// and its mean absolute deviation, select the model version whose
	// sustainable FPS covers sustained + rateMargin·deviation (instead of the
	// instantaneous observation), and serve from Fixed only while the
	// deviation says the rate is stable enough that switches will be rare.
	SwitchRate
	numSwitchPolicies
)

var switchPolicyNames = [numSwitchPolicies]string{
	SwitchInterval: "interval",
	SwitchRate:     "rate",
}

// String names the policy (the spelling ParseSwitchPolicy accepts).
func (p SwitchPolicy) String() string {
	if p < 0 || p >= numSwitchPolicies {
		return fmt.Sprintf("manager.SwitchPolicy(%d)", int(p))
	}
	return switchPolicyNames[p]
}

// ParseSwitchPolicy parses a policy name ("interval" or "rate"), with
// the repo-standard did-you-mean hard error on unknown names.
func ParseSwitchPolicy(name string) (SwitchPolicy, error) {
	p, err := spec.Lookup("switch policy", strings.TrimSpace(name), switchPolicyNames[:])
	if err != nil {
		return 0, fmt.Errorf("manager: %w", err)
	}
	return SwitchPolicy(p), nil
}

// Sustained-rate tracker constants.
const (
	// rateHalfLife is the EWMA half-life in seconds: an observation's
	// weight halves every rateHalfLife seconds of simulated time.
	rateHalfLife = 2.0
	// rateMargin is the headroom in deviation multiples: the model is
	// chosen to cover sustained + rateMargin·deviation FPS.
	rateMargin = 1.0
	// rateStability is the deviation-to-mean ratio at or below which the
	// workload counts as stable, enabling the Fixed family.
	rateStability = 0.15
)

// RateTracker is the sustained-input-rate estimator: a time-aware EWMA
// of the observed rate plus an EWMA of its absolute deviation. Both use
// the same half-life, and observations arriving dt apart are weighted
// 1 − 2^(−dt/rateHalfLife), so the estimate is independent of how often
// the workload happens to be sampled. The zero tracker is ready to use.
type RateTracker struct {
	t    float64
	ewma float64
	dev  float64
	have bool
}

// Observe feeds one rate observation at simulation time now. The first
// observation seeds the estimate; later ones decay toward it with the
// half-life. Observations at the same instant (dt = 0) leave
// the estimate unchanged.
func (r *RateTracker) Observe(now, rate float64) {
	if !r.have {
		r.t, r.ewma, r.have = now, rate, true
		return
	}
	dt := now - r.t
	if dt < 0 {
		dt = 0
	}
	alpha := 1 - math.Exp(-dt*math.Ln2/rateHalfLife)
	r.dev += alpha * (math.Abs(rate-r.ewma) - r.dev)
	r.ewma += alpha * (rate - r.ewma)
	r.t = now
}

// Sustained returns the rate the serving configuration should cover:
// the EWMA plus rateMargin deviation-multiples of headroom.
func (r *RateTracker) Sustained() float64 { return r.ewma + rateMargin*r.dev }

// Deviation returns the EWMA of the absolute deviation.
func (r *RateTracker) Deviation() float64 { return r.dev }

// Stable reports whether the tracked rate is steady enough for the
// Fixed-Pruning family: the deviation is within the rateStability fraction
// of the mean. Before any observation it reports false.
func (r *RateTracker) Stable() bool {
	return r.have && r.dev <= rateStability*r.ewma
}
