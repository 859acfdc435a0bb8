package experiments

import (
	"runtime"

	"repro/internal/parallel"
)

// Concurrency cap for the experiment harness (library warm-up and
// per-scenario/per-series fan-outs). Every fan-out writes indexed result
// slots and assembles them in loop order, so results never depend on this
// value. The cap lives in the parallel knob registry so
// adaflow.SetParallelism drives it together with the repo's other caps.

var maxWorkers = parallel.RegisterKnob("experiments.harness", runtime.NumCPU())

// MaxWorkers returns the current cap.
func MaxWorkers() int { return maxWorkers.Get() }
