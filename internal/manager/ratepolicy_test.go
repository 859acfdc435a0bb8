package manager

import (
	"math"
	"strings"
	"testing"
)

func TestParseSwitchPolicy(t *testing.T) {
	for name, want := range map[string]SwitchPolicy{"interval": SwitchInterval, "rate": SwitchRate, " rate ": SwitchRate} {
		got, err := ParseSwitchPolicy(name)
		if err != nil {
			t.Fatalf("ParseSwitchPolicy(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseSwitchPolicy(%q) = %v, want %v", name, got, want)
		}
	}
	_, err := ParseSwitchPolicy("rte")
	if err == nil || !strings.Contains(err.Error(), `did you mean "rate"`) {
		t.Fatalf("near-miss error = %v", err)
	}
	if s := SwitchRate.String(); s != "rate" {
		t.Errorf("SwitchRate.String() = %q", s)
	}
}

func TestRateTrackerHalfLife(t *testing.T) {
	r := &RateTracker{}
	r.Observe(0, 100)
	if r.ewma != 100 {
		t.Fatalf("seed mean %v", r.ewma)
	}
	// One half-life later the estimate moves half way to the new rate.
	r.Observe(2, 200)
	if math.Abs(r.ewma-150) > 1e-9 {
		t.Fatalf("after one half-life mean = %v, want 150", r.ewma)
	}
	// dt = 0 leaves the estimate unchanged.
	r.Observe(2, 1000)
	if math.Abs(r.ewma-150) > 1e-9 {
		t.Fatalf("zero-dt observation moved the mean to %v", r.ewma)
	}
}

// TestRateTrackerSamplingIndependent: the time-aware weighting makes the
// estimate (approximately) independent of how often a constant-rate
// stretch is sampled.
func TestRateTrackerSamplingIndependent(t *testing.T) {
	coarse := &RateTracker{}
	fine := &RateTracker{}
	coarse.Observe(0, 100)
	fine.Observe(0, 100)
	// 10 s of a steady 300 FPS, sampled at 1 Hz vs 100 Hz.
	for ti := 1; ti <= 10; ti++ {
		coarse.Observe(float64(ti), 300)
	}
	for ti := 1; ti <= 1000; ti++ {
		fine.Observe(float64(ti)*0.01, 300)
	}
	if math.Abs(coarse.ewma-fine.ewma) > 1.0 {
		t.Fatalf("sampling rate changed the estimate: 1 Hz %v vs 100 Hz %v", coarse.ewma, fine.ewma)
	}
}

func TestRateTrackerStability(t *testing.T) {
	r := &RateTracker{}
	if r.Stable() {
		t.Fatal("unseeded tracker reports stable")
	}
	for i := 0; i <= 100; i++ {
		r.Observe(float64(i)*0.5, 600)
	}
	if !r.Stable() {
		t.Fatalf("steady rate not stable: mean %v dev %v", r.ewma, r.Deviation())
	}
	// Strong alternation drives the deviation above 15 % of the mean.
	for i := 101; i <= 200; i++ {
		rate := 200.0
		if i%2 == 0 {
			rate = 1000
		}
		r.Observe(float64(i)*0.5, rate)
	}
	if r.Stable() {
		t.Fatalf("±67%% alternation reported stable: mean %v dev %v", r.ewma, r.Deviation())
	}
	if s := r.Sustained(); s <= r.ewma {
		t.Fatalf("sustained %v not above mean %v under fluctuation", s, r.ewma)
	}
}

// TestDecideRatePolicySmoothsTransients: under SwitchRate a one-sample
// dip in the incoming rate must not trigger a model switch, because
// selection follows the sustained estimate.
func TestDecideRatePolicySmoothsTransients(t *testing.T) {
	lib := paperLib(t)
	cfg := DefaultConfig()
	cfg.SwitchPolicy = SwitchRate
	mgr, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := mgr.Decide(0, 600)
	for i := 1; i <= 20; i++ {
		mgr.Decide(float64(i)*0.5, 600)
	}
	base := mgr.Switches()
	// A single 50 ms dip to 100 FPS: the interval rule would re-select a
	// more accurate (slower) model; the sustained estimate barely moves.
	d, changed := mgr.Decide(10.05, 100)
	if changed && d.Entry != d0.Entry {
		t.Fatalf("transient dip switched the model to entry %d", d.Entry)
	}
	if mgr.Switches() != base {
		t.Fatalf("transient dip cost %d switches", mgr.Switches()-base)
	}
}

// TestDecideRatePolicyStableGoesFixed: a steady workload must converge
// to the Fixed family under the rate rule, and an erratic one must stay
// on Flexible.
func TestDecideRatePolicyStableGoesFixed(t *testing.T) {
	lib := paperLib(t)
	cfg := DefaultConfig()
	cfg.SwitchPolicy = SwitchRate
	mgr, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last Decision
	for i := 0; i <= 40; i++ {
		last, _ = mgr.Decide(float64(i)*0.5, 600)
	}
	if last.Kind != Fixed {
		t.Fatalf("steady workload served from %v, want Fixed", last.Kind)
	}

	mgr2, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{600, 150, 900, 200, 1000, 100, 800, 250, 950, 150}
	for i := 0; i <= 40; i++ {
		last, _ = mgr2.Decide(float64(i)*0.5, rates[i%len(rates)])
	}
	if last.Kind != Flexible {
		t.Fatalf("erratic workload served from %v, want Flexible", last.Kind)
	}
}

func TestRateConfigValidation(t *testing.T) {
	lib := paperLib(t)
	cfg := DefaultConfig()
	cfg.SwitchPolicy = SwitchPolicy(99)
	if _, err := New(lib, cfg); err == nil {
		t.Fatal("out-of-range switch policy accepted")
	}
}
