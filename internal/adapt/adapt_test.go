package adapt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/library"
)

// testLib builds a minimal serving library for state-machine tests; the
// loop only reads Entries and Version.
func testLib() *library.Library {
	return &library.Library{Entries: []library.Entry{{Accuracy: 0.9}, {Accuracy: 0.85}}}
}

func newTestLoop(t *testing.T, cfg Config) *Loop {
	t.Helper()
	cfg.Enabled = true
	l, err := NewLoop(cfg, testLib(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"threshold>=1": {Threshold: 1},
	} {
		if _, err := NewLoop(cfg, testLib(), nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := NewLoop(Config{}, nil, nil); err == nil {
		t.Error("nil library accepted")
	}
}

// TestSpikeVsSustained: a one-sample accuracy spike decays through the
// EWMA without triggering; the same depth sustained past the hold-down
// fires exactly one detection.
func TestSpikeVsSustained(t *testing.T) {
	l := newTestLoop(t, Config{Threshold: 0.03})
	const dt = 0.01
	now := 0.0
	step := func(measured float64) bool {
		now += dt
		return l.Observe(now, measured, 0.9)
	}
	// Settle at nominal, then one deep spike, then nominal again.
	for i := 0; i < 50; i++ {
		step(0.9)
	}
	if step(0.6) {
		t.Fatal("single spike triggered instantly")
	}
	for i := 0; i < 200; i++ {
		if step(0.9) {
			t.Fatal("decaying spike triggered a detection")
		}
	}
	// Sustained shift of the same depth: must fire once the EWMA crosses
	// the threshold and holds for holdDown.
	fired := false
	for i := 0; i < 200; i++ {
		if step(0.6) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("sustained shift never detected")
	}
	if s := l.Stats(); s.Detections != 1 {
		t.Fatalf("detections = %d, want 1", s.Detections)
	}
}

// TestFullCycle drives one complete detect → retrain → swap → probation
// cycle and checks the compensation plumbing along the way.
func TestFullCycle(t *testing.T) {
	l := newTestLoop(t, Config{Threshold: 0.03})
	const dt, shift = 0.01, -0.15
	now, detected := 0.0, math.NaN()
	for i := 0; i < 200 && math.IsNaN(detected); i++ {
		now += dt
		sd := l.Compensate(shift)
		l.Account(10)
		if l.Observe(now, 0.9+sd, 0.9) {
			detected = now
		}
	}
	if math.IsNaN(detected) {
		t.Fatal("no detection")
	}
	if l.PendingSwap() != nil {
		t.Fatal("pending swap before the retrain finished")
	}
	l.FinishRetrain(detected + RetrainTime)
	cand := l.PendingSwap()
	if cand == nil {
		t.Fatal("no pending swap after retrain")
	}
	if cand.Version != 1 {
		t.Fatalf("candidate version = %d, want 1", cand.Version)
	}
	now = detected + RetrainTime
	l.Committed(now)
	if l.lib != cand {
		t.Fatal("committed swap did not replace the loop's library")
	}
	// Compensation is now active and must not overshoot a shallower (or
	// absent) shift.
	if sd := l.Compensate(shift); sd <= shift || sd > 0 {
		t.Fatalf("compensated shift %v out of (%v, 0]", sd, shift)
	}
	if sd := l.Compensate(-0.01); sd != 0 {
		t.Fatalf("compensation overshot a shallow shift: %v", sd)
	}
	if sd := l.Compensate(0); sd != 0 {
		t.Fatalf("compensation applied with no shift: %v", sd)
	}
	// Ride out probation at the compensated accuracy: the swap sticks.
	for i := 0; i < 200; i++ {
		now += dt
		sd := l.Compensate(shift)
		l.Account(10)
		l.Observe(now, 0.9+sd, 0.9)
	}
	s := l.Stats()
	if s.Detections != 1 || s.Retrains != 1 || s.Swaps != 1 || s.Rollbacks != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.RecoveredPoints <= 0 {
		t.Fatalf("recovered points = %v, want > 0", s.RecoveredPoints)
	}
}

// failingRetrainer always reports a synthesis failure.
type failingRetrainer struct{}

func (failingRetrainer) Retrain(*library.Library, float64) (*library.Library, float64, error) {
	return nil, 0, fmt.Errorf("synthesis failed")
}

// TestValidationRollbackAndQuarantine: a failed retrain rolls back
// without ever staging a swap, and quarantines detection for the
// backoff.
func TestValidationRollbackAndQuarantine(t *testing.T) {
	l := newTestLoop(t, Config{Threshold: 0.03, Retrainer: failingRetrainer{}})
	const dt = 0.01
	now, detected := 0.0, math.NaN()
	for i := 0; i < 200 && math.IsNaN(detected); i++ {
		now += dt
		if l.Observe(now, 0.75, 0.9) {
			detected = now
		}
	}
	if math.IsNaN(detected) {
		t.Fatal("no detection")
	}
	l.FinishRetrain(detected + RetrainTime)
	if l.PendingSwap() != nil {
		t.Fatal("failed retrain staged a swap")
	}
	s := l.Stats()
	if s.Rollbacks != 1 || s.Swaps != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Inside the quarantine the deficit persists but must not re-detect.
	now = detected + RetrainTime
	quarantineEnd := now + quarantineBackoff
	for now < quarantineEnd-dt {
		now += dt
		if l.Observe(now, 0.75, 0.9) {
			t.Fatalf("re-detected at %v inside quarantine", now)
		}
	}
	// After quarantine + hold-down it fires again.
	fired := false
	for i := 0; i < 100; i++ {
		now += dt
		if l.Observe(now, 0.75, 0.9) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("never re-detected after quarantine")
	}
}

// TestBackoffDoubling: consecutive failures double the quarantine up to
// quarantineBackoffMax.
func TestBackoffDoubling(t *testing.T) {
	l := newTestLoop(t, Config{Retrainer: failingRetrainer{}})
	base := 100.0
	for i, want := range []float64{1, 2, 4, 8, 16, 16} {
		l.st = stateRetraining
		l.deficit = 0.1
		l.FinishRetrain(base)
		if got := l.quarantineUntil - base; got != want {
			t.Fatalf("failure %d: backoff %v, want %v", i+1, got, want)
		}
	}
	if l.consecFails != 6 {
		t.Fatalf("consecFails = %d", l.consecFails)
	}
}

// TestProbationRollback: a swap whose recovery is too shallow fails
// probation; the prior version is re-installed through the same pending
// swap path, and the compensation is rolled back with it. The retrainer
// wins back only a tenth of the deficit: enough to pass validation, too
// little to pass probation.
func TestProbationRollback(t *testing.T) {
	l := newTestLoop(t, Config{Threshold: 0.03, Retrainer: SimRetrainer{Fraction: 0.1}})
	orig := l.lib
	const dt, shift = 0.01, -0.15
	now, detected := 0.0, math.NaN()
	for i := 0; i < 200 && math.IsNaN(detected); i++ {
		now += dt
		sd := l.Compensate(shift)
		if l.Observe(now, 0.9+sd, 0.9) {
			detected = now
		}
	}
	if math.IsNaN(detected) {
		t.Fatal("no detection")
	}
	now = detected + RetrainTime
	l.FinishRetrain(now)
	cand := l.PendingSwap()
	if cand == nil {
		t.Fatal("no pending swap")
	}
	l.Committed(now)
	// Probation at only 10% compensation: the residual deficit stays past
	// the threshold, so probation expiry must roll back.
	for i := 0; i < 200 && l.PendingSwap() == nil; i++ {
		now += dt
		sd := l.Compensate(shift)
		l.Observe(now, 0.9+sd, 0.9)
	}
	back := l.PendingSwap()
	if back != orig {
		t.Fatalf("rollback staged %p, want the prior version %p", back, orig)
	}
	l.Committed(now)
	if l.lib != orig {
		t.Fatal("rollback did not restore the prior version")
	}
	if sd := l.Compensate(shift); sd != shift {
		t.Fatalf("compensation survived the rollback: %v", sd)
	}
	s := l.Stats()
	if s.Swaps != 1 || s.Rollbacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestRebuildImmutable: Rebuild copies the entries slice, so mutating
// the candidate never reaches readers of the published version.
func TestRebuildImmutable(t *testing.T) {
	lib := testLib()
	cand := Rebuild(lib)
	if cand.Version != lib.Version+1 {
		t.Fatalf("version = %d", cand.Version)
	}
	cand.Entries[0].Accuracy = 0.1
	if lib.Entries[0].Accuracy != 0.9 {
		t.Fatal("candidate mutation reached the published library")
	}
}

// TestAlphaMemoExact feeds the EWMA weight memo more distinct gaps than it
// has slots, several times over and in a shuffled order, so slots collide
// and are refilled: every weight must equal 1 − exp(−dt/detectorWindow)
// bit for bit. The gaps differ only in low mantissa bits, as a run's do.
func TestAlphaMemoExact(t *testing.T) {
	var gaps []float64
	for i := range 40 {
		gaps = append(gaps, 0.05+float64(i)*1e-12, float64(i+1)*0.0125)
	}
	var m alphaMemo
	for round := range 3 {
		for i := range gaps {
			dt := gaps[(i*7+round*13)%len(gaps)]
			want := 1 - math.Exp(-dt/detectorWindow)
			if got := m.of(dt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d, dt %v: memo gives %v, the expression %v", round, dt, got, want)
			}
		}
	}
}
