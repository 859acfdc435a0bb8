package edge

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSimConfigValidate: knobs a run cannot honour fail both run kinds with
// an error, never a hang or a panic, while the documented meanings of zero,
// non-positive deadlines and single-frame batch sizes keep running. A
// threshold change to a NaN, infinite or negative threshold is one such
// knob: the manager would refuse it mid-run.
func TestSimConfigValidate(t *testing.T) {
	lib := paperLib(t)
	scn := Scenario12()
	scn.Duration = 2
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		cfg     SimConfig
		wantErr string // empty: the run must succeed
	}{
		{"zero values", SimConfig{}, ""},
		{"deadline disabled", SimConfig{AdmissionConfig: AdmissionConfig{Deadline: -1}}, ""},
		{"deadline -inf disabled", SimConfig{AdmissionConfig: AdmissionConfig{Deadline: -inf}}, ""},
		{"single-frame batch", SimConfig{BatchConfig: BatchConfig{Size: -3}}, ""},
		{"unbounded queue", SimConfig{AdmissionConfig: AdmissionConfig{QueueFrames: inf}}, ""},
		{"threshold change", thresholdAt(1, 0.05), ""},
		{"negative queue", SimConfig{AdmissionConfig: AdmissionConfig{QueueFrames: -1}}, "QueueFrames"},
		{"NaN queue", SimConfig{AdmissionConfig: AdmissionConfig{QueueFrames: nan}}, "QueueFrames"},
		{"NaN deadline", SimConfig{AdmissionConfig: AdmissionConfig{Deadline: nan}}, "Deadline"},
		{"+Inf deadline", SimConfig{AdmissionConfig: AdmissionConfig{Deadline: inf}}, "Deadline"},
		{"NaN threshold change", thresholdAt(1, nan), "threshold"},
		{"+Inf threshold change", thresholdAt(1, inf), "threshold"},
		{"negative threshold change", thresholdAt(1, -0.05), "threshold"},
	} {
		if err := tc.cfg.Validate(); (err == nil) != (tc.wantErr == "") {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
		for kind, eventLevel := range map[string]bool{"fluid": false, "event": true} {
			ctl := adaflow(t, lib)
			cfg := tc.cfg
			cfg.EventLevel = eventLevel
			err := runGuarded(func() error {
				_, err := Run(scn, ctl, cfg)
				return err
			})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("%s (%s): %v", tc.name, kind, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("%s (%s): err = %v, want one naming %s", tc.name, kind, err, tc.wantErr)
			}
		}
	}
}

// thresholdAt schedules one user threshold change.
func thresholdAt(t, threshold float64) SimConfig {
	return SimConfig{ThresholdChanges: []ThresholdChange{{Time: t, Threshold: threshold}}}
}

// runGuarded turns a panic into an error and gives up on a run that does
// not return within a minute.
func runGuarded(f func() error) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v", p)
			}
		}()
		done <- f()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		return fmt.Errorf("run did not return within a minute")
	}
}
