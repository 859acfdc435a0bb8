package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The knob registry unifies the repo's parallelism caps. Each package that
// fans work out (tensor kernels, repeated edge runs, the experiment
// harness, library generation, cluster pool dispatch) registers one Knob
// at init and reads its cap from it, and SetAll drives every cap at once —
// the single switch behind the adaflow.SetParallelism facade. Only the
// tensor kernels' cap also has a setter of its own (tensor.SetMaxWorkers,
// behind the CLIs' -workers flag).

// Knob is one registered parallelism cap. Reads are a single atomic load, so
// hot paths can consult a knob per call.
type Knob struct {
	initial int
	v       atomic.Int64
}

var (
	knobMu sync.Mutex
	knobs  = map[string]*Knob{}
)

// RegisterKnob creates (or returns the existing) knob with this name,
// starting at initial. initial is also the reset value for Set(n <= 0).
// Registering the same name twice with different initials panics: two
// packages would be fighting over one cap.
func RegisterKnob(name string, initial int) *Knob {
	if initial < 1 {
		initial = 1
	}
	knobMu.Lock()
	defer knobMu.Unlock()
	if k, ok := knobs[name]; ok {
		if k.initial != initial {
			panic(fmt.Sprintf("parallel: knob %q re-registered with initial %d (was %d)", name, initial, k.initial))
		}
		return k
	}
	k := &Knob{initial: initial}
	k.v.Store(int64(initial))
	knobs[name] = k
	return k
}

// Get returns the current cap.
func (k *Knob) Get() int { return int(k.v.Load()) }

// Set stores a new cap and returns the previous one. n <= 0 resets to the
// knob's initial value. Safe to call concurrently; in-flight fan-outs keep
// the cap they read.
func (k *Knob) Set(n int) int {
	if n <= 0 {
		n = k.initial
	}
	return int(k.v.Swap(int64(n)))
}

// SetAll sets every registered knob to n (n <= 0 resets each knob to its
// own initial — NumCPU for compute pools, 1 for library generation).
func SetAll(n int) {
	knobMu.Lock()
	defer knobMu.Unlock()
	for _, k := range knobs {
		k.Set(n)
	}
}
