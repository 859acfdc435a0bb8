package edge

import (
	"runtime"

	"repro/internal/parallel"
)

// Concurrency cap for RunRepeated. It lives in the parallel knob
// registry, so adaflow.SetParallelism drives it together with the repo's
// other caps.

var maxParallelRuns = parallel.RegisterKnob("edge.runs", runtime.NumCPU())

// MaxParallelRuns returns the current cap.
func MaxParallelRuns() int { return maxParallelRuns.Get() }
