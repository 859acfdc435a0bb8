package edge

import (
	"fmt"
	"time"

	"repro/internal/library"
	"repro/internal/manager"
)

// ReconfController is the Fig. 1(b) "Pruning Reconf." server: it switches
// between pruned models with AdaFlow's model-selection policy
// (manager.SelectModel under the default accuracy policy), but only
// Fixed-Pruning accelerators exist, so every switch costs an FPGA
// reconfiguration of configurable duration (the figure sweeps 0–362 ms).
type ReconfController struct {
	lib      *library.Library
	mgr      *manager.Manager // model selection only
	reconfig time.Duration

	cur  int
	have bool
}

// NewPruningReconf builds the controller. reconfig is the per-switch FPGA
// reconfiguration time (0 models the figure's ideal switcher).
func NewPruningReconf(lib *library.Library, accThreshold float64, reconfig time.Duration) (*ReconfController, error) {
	cfg := manager.DefaultConfig()
	cfg.AccuracyThreshold = accThreshold
	mgr, err := manager.New(lib, cfg)
	if err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	if reconfig < 0 {
		return nil, fmt.Errorf("edge: negative reconfiguration time")
	}
	return &ReconfController{lib: lib, mgr: mgr, reconfig: reconfig}, nil
}

// React implements Controller.
func (c *ReconfController) React(now, incomingFPS float64) (Serving, time.Duration, bool, bool) {
	idx := c.mgr.SelectModel(incomingFPS)
	e := &c.lib.Entries[idx]
	s := Serving{
		FPS:       e.FixedFPS,
		Accuracy:  e.Accuracy,
		Power:     e.FixedPower,
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
