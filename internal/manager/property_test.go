package manager

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/library"
)

// shadowSelect is an independent, deliberately naive restatement of the
// paper's §IV-B2 model-selection rule, used as a differential oracle for
// SelectModel: among versions within the accuracy threshold, pick the most
// accurate one that meets the demand; if none meets it, the fastest.
func shadowSelect(lib *library.Library, threshold, need float64) int {
	floor := lib.BaselineAccuracy() - threshold
	meet, meetAcc := -1, -1.0
	fast, fastFPS := 0, -1.0
	for i, e := range lib.Entries {
		if e.Accuracy < floor {
			continue
		}
		if e.FixedFPS > fastFPS {
			fast, fastFPS = i, e.FixedFPS
		}
		if e.FixedFPS >= need && e.Accuracy > meetAcc {
			meet, meetAcc = i, e.Accuracy
		}
	}
	if meet >= 0 {
		return meet
	}
	return fast
}

// maxFixedFPS returns the library's fastest fixed-accelerator throughput.
func maxFixedFPS(lib *library.Library) float64 {
	max := 0.0
	for _, e := range lib.Entries {
		if e.FixedFPS > max {
			max = e.FixedFPS
		}
	}
	return max
}

// TestPropertySelectionMatchesShadowSpec: for random thresholds and
// incoming rates, SelectModel agrees with the naive oracle, and the
// selected version never violates the accuracy threshold.
func TestPropertySelectionMatchesShadowSpec(t *testing.T) {
	lib := paperLib(t)
	top := maxFixedFPS(lib)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.AccuracyThreshold = rng.Float64() * 0.3
		mgr, err := New(lib, cfg)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			in := rng.Float64() * 1.5 * top
			got := mgr.SelectModel(in)
			want := shadowSelect(lib, cfg.AccuracyThreshold, in)
			if got != want {
				t.Logf("threshold %.4f incoming %.1f: got entry %d, oracle %d",
					cfg.AccuracyThreshold, in, got, want)
				return false
			}
			if lib.Entries[got].Accuracy < lib.BaselineAccuracy()-cfg.AccuracyThreshold {
				t.Logf("selected entry %d below threshold", got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// shadowManager mirrors the documented Decide semantics (switch-interval
// EMA, the K×reconfigTime family rule, and the Fixed ban) independently of
// the implementation, for differential testing over generated histories.
type shadowManager struct {
	lib        *library.Library
	cfg        Config
	entry      int
	kind       AccelKind
	have       bool
	lastSwitch float64
	ema        float64
	haveEMA    bool
	banUntil   float64
}

func newShadow(lib *library.Library, cfg Config) *shadowManager {
	return &shadowManager{lib: lib, cfg: cfg, ema: 1e18, lastSwitch: -1e18, banUntil: -1e18}
}

// decide returns (entry, kind, changed, degraded) for an observation.
func (s *shadowManager) decide(now, in float64) (int, AccelKind, bool, bool) {
	entry := shadowSelect(s.lib, s.cfg.AccuracyThreshold, in)
	modelSwitch := !s.have || entry != s.entry
	interval := s.ema
	if modelSwitch && s.have {
		if obs := now - s.lastSwitch; obs < interval {
			interval = obs
		}
	}
	kind := Flexible
	if interval >= s.cfg.CriteriaMultiple*s.lib.ReconfigTime.Seconds() {
		kind = Fixed
	}
	degraded := false
	if kind == Fixed && now < s.banUntil {
		kind = Flexible
		degraded = true
	}
	if !modelSwitch && s.have {
		return s.entry, s.kind, false, false
	}
	if modelSwitch && s.have {
		obs := now - s.lastSwitch
		if !s.haveEMA {
			s.ema, s.haveEMA = obs, true
		} else {
			s.ema = 0.5*s.ema + 0.5*obs
		}
	}
	if modelSwitch {
		s.lastSwitch = now
	}
	s.entry, s.kind, s.have = entry, kind, true
	return entry, kind, true, degraded
}

// TestPropertyDecideMatchesShadowOverHistories: random workload histories
// drive a real manager and the shadow in lockstep; every decision (entry,
// family, changed) must agree, and the switch-interval rule is thereby
// checked over arbitrary histories rather than hand-picked ones.
func TestPropertyDecideMatchesShadowOverHistories(t *testing.T) {
	lib := paperLib(t)
	top := maxFixedFPS(lib)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.AccuracyThreshold = 0.05 + rng.Float64()*0.2
		cfg.CriteriaMultiple = 1 + rng.Float64()*15
		mgr, err := New(lib, cfg)
		if err != nil {
			return false
		}
		sh := newShadow(lib, cfg)
		now := 0.0
		for i := 0; i < 120; i++ {
			now += 0.01 + rng.Float64()*3
			in := rng.Float64() * 1.4 * top
			d, changed := mgr.Decide(now, in)
			if d.Reconfigured && changed {
				mgr.ReconfigSucceeded(now)
			}
			e, k, ch, _ := sh.decide(now, in)
			if changed != ch || d.Entry != e || d.Kind != k {
				t.Logf("step %d (t=%.3f in=%.1f): got (%d,%v,%v), shadow (%d,%v,%v)",
					i, now, in, d.Entry, d.Kind, changed, e, k, ch)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyThresholdNeverViolatedUnderChaos: even with injected
// reconfiguration failures (random rollbacks), every logged decision's
// library accuracy stays within the user threshold, and log accuracy
// never regresses below baseline − threshold.
func TestPropertyThresholdNeverViolatedUnderChaos(t *testing.T) {
	lib := paperLib(t)
	top := maxFixedFPS(lib)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.AccuracyThreshold = 0.05 + rng.Float64()*0.15
		mgr, err := New(lib, cfg)
		if err != nil {
			return false
		}
		log := traceDecisions(mgr)
		floor := lib.BaselineAccuracy() - cfg.AccuracyThreshold
		now := 0.0
		for i := 0; i < 150; i++ {
			now += 0.01 + rng.Float64()*2
			d, changed := mgr.Decide(now, rng.Float64()*1.4*top)
			if changed && d.Reconfigured {
				// A coin flip decides the reconfiguration outcome.
				if rng.Intn(2) == 0 {
					mgr.ReconfigFailed(now)
				} else {
					mgr.ReconfigSucceeded(now)
				}
			}
			if cur, ok := mgr.Current(); ok {
				if lib.Entries[cur.Entry].Accuracy < floor-1e-12 {
					t.Logf("step %d: current entry %d below threshold", i, cur.Entry)
					return false
				}
			}
		}
		for _, ev := range *log {
			if lib.Entries[attr(ev, "entry").(int64)].Accuracy < floor-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterministicReplay: the same decision/fault history drives
// two managers to bit-identical logs, counters and Fixed bans.
func TestPropertyDeterministicReplay(t *testing.T) {
	lib := paperLib(t)
	top := maxFixedFPS(lib)
	f := func(seed int64) bool {
		run := func() (decisionLog, int, int, float64) {
			rng := rand.New(rand.NewSource(seed))
			mgr, err := New(lib, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			log := traceDecisions(mgr)
			now := 0.0
			for i := 0; i < 100; i++ {
				now += 0.01 + rng.Float64()*2
				d, changed := mgr.Decide(now, rng.Float64()*1.4*top)
				if changed && d.Reconfigured {
					if rng.Intn(3) == 0 {
						mgr.ReconfigFailed(now)
					} else {
						mgr.ReconfigSucceeded(now)
					}
				}
			}
			return *log, mgr.Switches(), mgr.reconfFails, mgr.fixedBanUntil
		}
		l1, s1, f1, b1 := run()
		l2, s2, f2, b2 := run()
		return reflect.DeepEqual(l1, l2) && s1 == s2 && f1 == f2 && b1 == b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySwitchIntervalRuleDirect: hand-driven histories at two
// extremes pin the K×reconfigTime rule without the shadow: switches slower
// than K×reconfigTime settle on Fixed, faster ones settle on Flexible.
func TestPropertySwitchIntervalRuleDirect(t *testing.T) {
	lib := paperLib(t)
	cfg := DefaultConfig()
	K := cfg.CriteriaMultiple * lib.ReconfigTime.Seconds()

	slow, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate between two demand levels with gaps well above K.
	now, rates := 0.0, []float64{100, 1e9}
	var lastKind AccelKind
	for i := 0; i < 12; i++ {
		now += 4 * K
		d, changed := slow.Decide(now, rates[i%2])
		if changed && d.Reconfigured {
			slow.ReconfigSucceeded(now)
		}
		lastKind = d.Kind
	}
	if lastKind != Fixed {
		t.Fatalf("slow switching (interval %.2fs > %.2fs) did not settle on Fixed", 4*K, K)
	}

	fast, err := New(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now = 0.0
	for i := 0; i < 12; i++ {
		now += K / 8
		d, changed := fast.Decide(now, rates[i%2])
		if changed && d.Reconfigured {
			fast.ReconfigSucceeded(now)
		}
		lastKind = d.Kind
	}
	if lastKind != Flexible {
		t.Fatalf("fast switching (interval %.3fs < %.2fs) did not settle on Flexible", K/8, K)
	}
	if math.IsNaN(K) || K <= 0 {
		t.Fatalf("degenerate criteria window %.3f", K)
	}
}
