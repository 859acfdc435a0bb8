package manager

import (
	"math"
	"testing"
	"time"

	"repro/internal/accuracy"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/obs"
)

func paperLib(t *testing.T) *library.Library {
	t.Helper()
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Generate(m, library.Config{Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// decisionLog is a trace sink keeping the committed decision history:
// one "manager/decide" event per Decide that changed the serving
// configuration, less each one a "manager/rollback" undid.
type decisionLog []obs.Event

func (l *decisionLog) Emit(ev obs.Event) {
	switch {
	case ev.Cat != obs.ManagerCat:
	case ev.Name == "decide" && attr(ev, "changed") == true:
		*l = append(*l, ev)
	case ev.Name == "rollback" && len(*l) > 0:
		*l = (*l)[:len(*l)-1]
	}
}

// traceDecisions attaches a decisionLog to mgr.
func traceDecisions(mgr *Manager) *decisionLog {
	l := &decisionLog{}
	mgr.SetTracer(obs.New(l))
	return l
}

// attr returns the named attribute's payload (nil when absent).
func attr(ev obs.Event, key string) any {
	a, ok := ev.Attr(key)
	if !ok {
		return nil
	}
	return a.Value()
}

func TestNewValidation(t *testing.T) {
	lib := paperLib(t)
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil library accepted")
	}
	bad := DefaultConfig()
	bad.AccuracyThreshold = -1
	if _, err := New(lib, bad); err == nil {
		t.Fatal("negative threshold accepted")
	}
	bad = DefaultConfig()
	bad.CriteriaMultiple = 0
	if _, err := New(lib, bad); err == nil {
		t.Fatal("zero criteria accepted")
	}
}

// TestNonFiniteParameters: a NaN or infinite threshold or criteria
// multiple is refused by New and SetAccuracyThreshold instead of
// silently pinning the selection (a NaN threshold makes no entry
// eligible; a NaN or +Inf multiple never selects Fixed).
func TestNonFiniteParameters(t *testing.T) {
	lib := paperLib(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name              string
		threshold, factor float64
	}{
		{"NaN threshold", nan, 10},
		{"+Inf threshold", inf, 10},
		{"-Inf threshold", -inf, 10},
		{"NaN multiple", 0.1, nan},
		{"+Inf multiple", 0.1, inf},
		{"-Inf multiple", 0.1, -inf},
	} {
		if _, err := New(lib, Config{AccuracyThreshold: tc.threshold, CriteriaMultiple: tc.factor}); err == nil {
			t.Errorf("New accepted %s", tc.name)
		}
	}
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, thr := range []float64{nan, inf, -inf, -0.1} {
		if err := mgr.SetAccuracyThreshold(thr); err == nil {
			t.Errorf("SetAccuracyThreshold(%v) accepted", thr)
		}
	}
	if got := mgr.AccuracyThreshold(); got != DefaultConfig().AccuracyThreshold {
		t.Fatalf("refused thresholds changed the active one to %v", got)
	}
}

func TestSelectModelLowWorkloadPrefersAccuracy(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Incoming far below baseline capacity: the unpruned model matches the
	// demand and has the best accuracy.
	idx := mgr.SelectModel(100)
	if idx != 0 {
		t.Fatalf("low workload selected entry %d (rate %v)", idx, lib.Entries[idx].NominalRate)
	}
}

func TestSelectModelHighWorkloadPrefersThroughputWithinThreshold(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Demand above every in-threshold version: select the fastest version
	// still within the accuracy threshold, not an over-pruned one.
	idx := mgr.SelectModel(1e9)
	e := lib.Entries[idx]
	if e.Accuracy < lib.BaselineAccuracy()-DefaultConfig().AccuracyThreshold {
		t.Fatalf("selected entry below threshold: acc %v", e.Accuracy)
	}
	// It must be the fastest eligible one.
	for i, o := range lib.Entries {
		eligible := o.Accuracy >= lib.BaselineAccuracy()-DefaultConfig().AccuracyThreshold
		if eligible && o.FixedFPS > e.FixedFPS {
			t.Fatalf("entry %d (%.0f FPS) faster than selected (%.0f FPS)", i, o.FixedFPS, e.FixedFPS)
		}
	}
	if idx == 0 {
		t.Fatal("high workload kept the unpruned model")
	}
}

func TestSelectModelMidWorkloadPicksJustEnough(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mid := lib.BaselineFPS() * 1.3
	idx := mgr.SelectModel(mid)
	e := lib.Entries[idx]
	if e.FixedFPS < mid {
		t.Fatalf("selected version cannot match demand: %v < %v", e.FixedFPS, mid)
	}
	// Most accurate among those meeting demand.
	for _, o := range lib.Entries {
		eligible := o.Accuracy >= lib.BaselineAccuracy()-DefaultConfig().AccuracyThreshold
		if eligible && o.FixedFPS >= mid && o.Accuracy > e.Accuracy {
			t.Fatal("a more accurate matching version exists")
		}
	}
}

func TestDecideAcceleratorFamilyRule(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	crit := DefaultConfig().CriteriaMultiple * lib.ReconfigTime.Seconds()

	// Initial decision: switch intervals unknown (treated as long) →
	// Fixed.
	d0, changed := mgr.Decide(0, 100)
	if !changed || d0.Kind != Fixed || !d0.Reconfigured {
		t.Fatalf("initial decision %+v", d0)
	}

	// A switch long after the last one stays Fixed.
	d1, changed := mgr.Decide(crit*3, lib.BaselineFPS()*2)
	if !changed || d1.Kind != Fixed || !d1.Reconfigured {
		t.Fatalf("slow switch decision %+v (changed=%v)", d1, changed)
	}

	// A quick follow-up switch flips to Flexible (the observed interval
	// is below the criteria) — and costs a reconfiguration once (family
	// change), then fast switches.
	d2, changed := mgr.Decide(crit*3+0.2, 100)
	if !changed || d2.Kind != Flexible {
		t.Fatalf("fast switch decision %+v (changed=%v)", d2, changed)
	}
	if !d2.Reconfigured {
		t.Fatal("family change must reconfigure")
	}
	d3, changed := mgr.Decide(crit*3+0.4, lib.BaselineFPS()*2)
	if !changed || d3.Kind != Flexible || d3.Reconfigured {
		t.Fatalf("subsequent fast switch %+v", d3)
	}
	if d3.SwitchCost != lib.FlexSwitchTime {
		t.Fatalf("fast switch cost = %v, want %v", d3.SwitchCost, lib.FlexSwitchTime)
	}
	if mgr.Switches() != 4 {
		t.Fatalf("switches = %d, want 4", mgr.Switches())
	}
}

func TestDecideNoChangeNoSwitch(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Decide(0, 100)
	d, changed := mgr.Decide(1, 101) // same selection
	if changed {
		t.Fatalf("no-op decision flagged as change: %+v", d)
	}
	if mgr.Switches() != 1 {
		t.Fatalf("switches = %d", mgr.Switches())
	}
}

func TestPolicyEnergyPrefersCheaperVersion(t *testing.T) {
	lib := paperLib(t)
	thr, err := New(lib, Config{AccuracyThreshold: 0.10, CriteriaMultiple: 10, Policy: PolicyThroughput})
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(lib, Config{AccuracyThreshold: 0.10, CriteriaMultiple: 10, Policy: PolicyEnergy})
	if err != nil {
		t.Fatal(err)
	}
	// At a low demand every eligible version matches: throughput policy
	// picks the most accurate (unpruned), energy policy the cheapest
	// (deepest eligible pruning).
	low := 100.0
	it := thr.SelectModel(low)
	ie := en.SelectModel(low)
	et, ee := lib.Entries[it], lib.Entries[ie]
	if et.Accuracy < ee.Accuracy {
		t.Fatal("throughput policy picked lower accuracy")
	}
	if ee.Fixed.TotalEnergyPerInference() > et.Fixed.TotalEnergyPerInference() {
		t.Fatalf("energy policy picked costlier version: %.3g vs %.3g mJ",
			ee.Fixed.TotalEnergyPerInference()*1e3, et.Fixed.TotalEnergyPerInference()*1e3)
	}
	if ie == it {
		t.Fatal("policies selected the same version; energy policy vacuous")
	}
	// Both respect the accuracy threshold.
	if ee.Accuracy < lib.BaselineAccuracy()-0.101 {
		t.Fatal("energy policy violated the accuracy threshold")
	}
	if PolicyEnergy.String() != "energy" || PolicyThroughput.String() != "throughput" {
		t.Fatal("policy names")
	}
}

// TestReconfigFailedRollsBack: a failed reconfiguration leaves the
// manager exactly as before the decision — state, counters and the
// traced decision history.
func TestReconfigFailedRollsBack(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := traceDecisions(mgr)
	d, changed := mgr.Decide(0, 100)
	if !changed || !d.Reconfigured {
		t.Fatalf("initial decision %+v", d)
	}
	retry, degraded := mgr.ReconfigFailed(0)
	if retry <= 0 || degraded {
		t.Fatalf("first failure: retry %v degraded %v", retry, degraded)
	}
	if _, have := mgr.Current(); have {
		t.Fatal("rollback kept a current decision")
	}
	if mgr.Switches() != 0 || mgr.Reconfigs() != 0 || len(*log) != 0 {
		t.Fatalf("rollback left counters: %d switches, %d reconfigs, %d logged",
			mgr.Switches(), mgr.Reconfigs(), len(*log))
	}
	if mgr.reconfFails != 1 {
		t.Fatalf("failures = %d", mgr.reconfFails)
	}
	// A fresh decision re-attempts normally.
	if d, changed := mgr.Decide(0.1, 100); !changed || !d.Reconfigured {
		t.Fatalf("re-decision %+v (changed=%v)", d, changed)
	}
}

// TestReconfigFailedNoOutstanding: with no uncommitted reconfiguration
// the call is a no-op.
func TestReconfigFailedNoOutstanding(t *testing.T) {
	lib := paperLib(t)
	mgr, _ := New(lib, DefaultConfig())
	if retry, degraded := mgr.ReconfigFailed(0); retry != 0 || degraded {
		t.Fatalf("no-op failure returned %v %v", retry, degraded)
	}
	mgr.Decide(0, 100)
	mgr.ReconfigSucceeded(0)
	// Outcome already committed: a late failure report changes nothing.
	if retry, _ := mgr.ReconfigFailed(1); retry != 0 {
		t.Fatal("failure after success rolled something back")
	}
	if _, have := mgr.Current(); !have {
		t.Fatal("committed decision lost")
	}
}

// TestDegradeAfterRetryBudget: maxReconfigRetries consecutive failures
// ban Fixed-Pruning; the next decision degrades to Flexible.
func TestDegradeAfterRetryBudget(t *testing.T) {
	lib := paperLib(t)
	mgr, err := New(lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := traceDecisions(mgr)
	now := 0.0
	wantRetry := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 20 * time.Millisecond}
	for i := 0; i < 3; i++ {
		d, changed := mgr.Decide(now, 100)
		if !changed || !d.Reconfigured || d.Kind != Fixed {
			t.Fatalf("attempt %d decision %+v (changed=%v)", i, d, changed)
		}
		retry, degraded := mgr.ReconfigFailed(now)
		if degraded != (i == 2) {
			t.Fatalf("attempt %d degraded = %v", i, degraded)
		}
		if retry != wantRetry[i] {
			t.Fatalf("attempt %d retry = %v, want %v", i, retry, wantRetry[i])
		}
		now += retry.Seconds()
	}
	if now >= mgr.fixedBanUntil {
		t.Fatal("fixed not banned after budget exhausted")
	}
	// The fallback decision serves from Flexible even though the
	// switch-interval rule says Fixed, and its trace marks it degraded.
	d, changed := mgr.Decide(now, 100)
	if !changed || d.Kind != Flexible {
		t.Fatalf("fallback decision %+v (changed=%v)", d, changed)
	}
	if l := *log; len(l) == 0 || attr(l[len(l)-1], "degraded") != true {
		t.Fatal("fallback decision not traced as degraded")
	}
	mgr.ReconfigSucceeded(now)
	// After the ban expires, Fixed becomes available again.
	after := now + fixedBanMultiple*lib.ReconfigTime.Seconds() + 1
	if after < mgr.fixedBanUntil {
		t.Fatal("ban never expires")
	}
}

// TestReconfigSucceededResetsStreak: a success between failures resets
// the backoff and the retry budget.
func TestReconfigSucceededResetsStreak(t *testing.T) {
	lib := paperLib(t)
	cfg := DefaultConfig()
	mgr, _ := New(lib, cfg)

	mgr.Decide(0, 100)
	if retry, degraded := mgr.ReconfigFailed(0); retry != 20*time.Millisecond || degraded {
		t.Fatalf("first retry %v degraded %v", retry, degraded)
	}
	mgr.Decide(0.1, 100)
	if retry, degraded := mgr.ReconfigFailed(0.1); retry != 40*time.Millisecond || degraded {
		t.Fatalf("second retry %v degraded %v", retry, degraded)
	}
	mgr.Decide(0.3, 100)
	mgr.ReconfigSucceeded(0.3)
	// Next failure starts the backoff over.
	crit := cfg.CriteriaMultiple * lib.ReconfigTime.Seconds()
	mgr.Decide(crit*5, lib.BaselineFPS()*2) // slow switch: Fixed reconfig
	if retry, degraded := mgr.ReconfigFailed(crit * 5); retry != 20*time.Millisecond || degraded {
		t.Fatalf("post-success retry %v degraded %v", retry, degraded)
	}
}

func TestThresholdWidensSelection(t *testing.T) {
	lib := paperLib(t)
	tight, _ := New(lib, Config{AccuracyThreshold: 0.02, CriteriaMultiple: 10})
	loose, _ := New(lib, Config{AccuracyThreshold: 0.30, CriteriaMultiple: 10})
	hi := 1e9
	et := lib.Entries[tight.SelectModel(hi)]
	el := lib.Entries[loose.SelectModel(hi)]
	if el.FixedFPS < et.FixedFPS {
		t.Fatal("larger threshold must allow at least the same throughput")
	}
	if el.NominalRate <= et.NominalRate {
		t.Fatal("larger threshold should reach deeper pruning")
	}
}
