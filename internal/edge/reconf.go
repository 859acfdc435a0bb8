package edge

import (
	"fmt"
	"time"

	"repro/internal/library"
	"repro/internal/manager"
)

// ReconfController is the Fig. 1(b) "Pruning Reconf." server: it switches
// between pruned models exactly like AdaFlow's model-selection policy, but
// only Fixed-Pruning accelerators exist, so every switch costs an FPGA
// reconfiguration of configurable duration (the figure sweeps 0–362 ms).
type ReconfController struct {
	lib       *library.Library
	threshold float64
	reconfig  time.Duration

	cur  int
	have bool
}

// NewPruningReconf builds the controller. reconfig is the per-switch FPGA
// reconfiguration time (0 models the figure's ideal switcher).
func NewPruningReconf(lib *library.Library, accThreshold float64, reconfig time.Duration) (*ReconfController, error) {
	if lib == nil || len(lib.Entries) == 0 {
		return nil, fmt.Errorf("edge: empty library")
	}
	if err := manager.CheckThreshold(accThreshold); err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	if reconfig < 0 {
		return nil, fmt.Errorf("edge: negative reconfiguration time")
	}
	return &ReconfController{lib: lib, threshold: accThreshold, reconfig: reconfig}, nil
}

// selectEntry mirrors the Runtime Manager's model policy: the most
// accurate eligible version that meets the demand, else the fastest
// eligible version.
func (c *ReconfController) selectEntry(incomingFPS float64) int {
	base := c.lib.BaselineAccuracy()
	best, bestFPS := 0, -1.0
	foundAcc, found := -1.0, -1
	for i := range c.lib.Entries {
		e := &c.lib.Entries[i]
		if e.Accuracy < base-c.threshold {
			continue
		}
		if e.FixedFPS > bestFPS {
			bestFPS, best = e.FixedFPS, i
		}
		if e.FixedFPS >= incomingFPS && e.Accuracy > foundAcc {
			foundAcc, found = e.Accuracy, i
		}
	}
	if found >= 0 {
		return found
	}
	return best
}

// React implements Controller.
func (c *ReconfController) React(now, incomingFPS float64) (Serving, time.Duration, bool, bool) {
	idx := c.selectEntry(incomingFPS)
	e := &c.lib.Entries[idx]
	s := Serving{
		FPS:       e.FixedFPS,
		Accuracy:  e.Accuracy,
		PowerAt:   e.FixedPower.At,
		IdlePower: e.FixedPower.IdleW,
		Label:     fmt.Sprintf("reconf p=%.0f%%", e.NominalRate*100),
	}
	if c.have && idx == c.cur {
		return s, 0, false, false
	}
	first := !c.have
	c.cur, c.have = idx, true
	if first {
		return s, 0, false, false // initial load is free, as for all controllers
	}
	return s, c.reconfig, true, c.reconfig > 0
}
