package library

import "repro/internal/parallel"

// defaultWorkers is the fallback concurrency of Generate's rate sweep when
// Config.Workers is unset. Its initial value of 1 preserves the historical
// "0 means serial" semantics; adaflow.SetParallelism (parallel.SetAll)
// raises it together with the repo's other fan-out caps, and SetAll(0)
// resets it back to serial.
var defaultWorkers = parallel.RegisterKnob("library.generate", 1)

// DefaultWorkers returns the current default for Config.Workers <= 0.
func DefaultWorkers() int { return defaultWorkers.Get() }
