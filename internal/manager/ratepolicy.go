package manager

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fault"
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
	// sustainable FPS covers sustained + Margin·deviation (instead of the
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
	name = strings.TrimSpace(name)
	for p, n := range switchPolicyNames {
		if n == name {
			return SwitchPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("manager: unknown switch policy %q%s (known: %s)",
		name, fault.DidYouMean(name, switchPolicyNames[:]), strings.Join(switchPolicyNames[:], ", "))
}

// RateConfig tunes the sustained-rate tracker behind SwitchRate. Zero
// values select the defaults, so the zero RateConfig is ready to use.
type RateConfig struct {
	// HalfLife is the EWMA half-life in seconds: an observation's weight
	// halves every HalfLife seconds of simulated time (0 = default 2 s).
	// Smaller follows the workload faster; larger smooths harder.
	HalfLife float64
	// Margin is the headroom in deviation multiples: the model is chosen
	// to cover sustained + Margin·deviation FPS (0 = default 1).
	Margin float64
	// Stability is the deviation-to-mean ratio at or below which the
	// workload counts as stable, enabling the Fixed family
	// (0 = default 0.15).
	Stability float64
}

func (c RateConfig) halfLife() float64 {
	if c.HalfLife == 0 {
		return 2
	}
	return c.HalfLife
}

func (c RateConfig) margin() float64 {
	if c.Margin == 0 {
		return 1
	}
	return c.Margin
}

func (c RateConfig) stability() float64 {
	if c.Stability == 0 {
		return 0.15
	}
	return c.Stability
}

// validate checks the tracker parameters.
func (c RateConfig) validate() error {
	if c.HalfLife < 0 || c.Margin < 0 || c.Stability < 0 {
		return fmt.Errorf("manager: negative rate-policy parameter")
	}
	return nil
}

// RateTracker is the sustained-input-rate estimator: a time-aware EWMA
// of the observed rate plus an EWMA of its absolute deviation. Both use
// the same half-life, and observations arriving dt apart are weighted
// 1 − 2^(−dt/HalfLife), so the estimate is independent of how often the
// workload happens to be sampled. The zero tracker (plus a RateConfig)
// is ready to use.
type RateTracker struct {
	cfg  RateConfig
	t    float64
	ewma float64
	dev  float64
	have bool
}

// Observe feeds one rate observation at simulation time now. The first
// observation seeds the estimate; later ones decay toward it with the
// configured half-life. Observations at the same instant (dt = 0) leave
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
	alpha := 1 - math.Exp(-dt*math.Ln2/r.cfg.halfLife())
	r.dev += alpha * (math.Abs(rate-r.ewma) - r.dev)
	r.ewma += alpha * (rate - r.ewma)
	r.t = now
}

// Sustained returns the rate the serving configuration should cover:
// the EWMA plus Margin deviation-multiples of headroom.
func (r *RateTracker) Sustained() float64 { return r.ewma + r.cfg.margin()*r.dev }

// Deviation returns the EWMA of the absolute deviation.
func (r *RateTracker) Deviation() float64 { return r.dev }

// Stable reports whether the tracked rate is steady enough for the
// Fixed-Pruning family: the deviation is within the Stability fraction
// of the mean. Before any observation it reports false.
func (r *RateTracker) Stable() bool {
	return r.have && r.dev <= r.cfg.stability()*r.ewma
}
