package edge

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestRunRepeatedDeterministicAcrossParallelism pins the contract the
// concurrent fan-out must keep: per-run stats and their mean are identical
// whether the repeats execute serially or across workers. Runs with the
// AdaFlow controller, whose flexible power model queries the shared
// library from every run (exercised under -race by make test-race), in
// both serving models.
func TestRunRepeatedDeterministicAcrossParallelism(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) { return adaflow(t, lib), nil }
	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := SimConfig{EventLevel: mode.eventLevel, FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 11}}
			repeatedAcrossWorkers(t, Scenario12(), mk, 8, 3, cfg)
		})
	}
}

// repeatedAcrossWorkers runs RunRepeated serially and at 2 and NumCPU
// workers, fails unless every per-run stat and the mean are identical, and
// returns the mean.
func repeatedAcrossWorkers(t *testing.T, scn Scenario, mk func() (Controller, error), n int, seed int64, cfg SimConfig) metrics.RunStats {
	t.Helper()
	var serialMean metrics.RunStats
	var serialRuns []metrics.RunStats
	for _, workers := range []int{1, 2, 0} { // 0 resets to NumCPU
		old := maxParallelRuns.Set(workers)
		mean, runs, err := RunRepeated(scn, mk, n, seed, cfg)
		maxParallelRuns.Set(old)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serialMean, serialRuns = mean, runs
			continue
		}
		if !reflect.DeepEqual(serialRuns, runs) {
			t.Fatalf("workers=%d: per-run stats diverged from serial", workers)
		}
		if !reflect.DeepEqual(serialMean, mean) {
			t.Fatalf("workers=%d: mean diverged from serial:\n serial: %+v\n par:    %+v",
				workers, serialMean, mean)
		}
	}
	return serialMean
}
