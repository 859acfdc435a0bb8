// Package explore searches the PE/SIMD folding design space of a dataflow
// accelerator — the role of FINN's folding-configuration step. Starting
// from a minimal (fully folded) configuration it greedily unfolds the
// current bottleneck layer, one legal divisor step at a time. The search
// is exact with respect to the cycle and resource models in internal/finn
// and internal/synth, on the paper's board (synth.ZCU104) at finn.ClockHz.
//
// The greedy trajectory depends only on the model and Options, never on
// the goal, so every query reads one walk: TargetFPS takes the first point
// at or above the target, MaxFPSWithin the last point within the LUT
// budget, and Frontier reads all its targets from a single walk up to the
// highest one. Each point is a fresh finn.Map and synth.Synthesize.
package explore

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/synth"
)

// Result is one explored design point.
type Result struct {
	Folding    finn.Folding
	FPS        float64
	Res        synth.Resources
	Iterations int
	// Bottleneck names the module limiting throughput at the end.
	Bottleneck string
}

// Options tune the search.
type Options struct {
	// MaxIterations bounds the greedy loop (default 256).
	MaxIterations int
	// Flexible explores the runtime-controllable variant (worst-case
	// sizing, higher resource cost).
	Flexible bool
}

func (o *Options) maxIterations() int {
	if o.MaxIterations == 0 {
		return 256
	}
	return o.MaxIterations
}

// MinimalFolding returns the fully-folded configuration: PE=1 everywhere
// and the smallest legal SIMD (kernel-column granularity for convs, 1 for
// dense layers).
func MinimalFolding(m *model.Model) finn.Folding {
	convs := m.Net.Convs()
	denses := m.Net.Denses()
	f := finn.Folding{
		ConvPE:    make([]int, len(convs)),
		ConvSIMD:  make([]int, len(convs)),
		DensePE:   make([]int, len(denses)),
		DenseSIMD: make([]int, len(denses)),
	}
	for i := range convs {
		f.ConvPE[i] = 1
		f.ConvSIMD[i] = 1
	}
	for i := range denses {
		f.DensePE[i] = 1
		f.DenseSIMD[i] = 1
	}
	return f
}

// layerIndex parses the module name produced by finn.Map ("mvtu3", "fc1",
// "swu2") into layer kind and index.
func layerIndex(name string) (conv bool, idx int, ok bool) {
	switch {
	case strings.HasPrefix(name, "mvtu"):
		i, err := strconv.Atoi(name[4:])
		return true, i, err == nil
	case strings.HasPrefix(name, "swu"):
		i, err := strconv.Atoi(name[3:])
		return true, i, err == nil
	case strings.HasPrefix(name, "fc"):
		i, err := strconv.Atoi(name[2:])
		return false, i, err == nil
	default:
		return false, 0, false
	}
}

// unfoldStep returns a copy of f with the bottleneck layer's cheaper axis
// advanced one divisor step, or ok=false when the layer is fully unfolded.
func unfoldStep(m *model.Model, f finn.Folding, bottleneck string) (finn.Folding, bool) {
	conv, idx, ok := layerIndex(bottleneck)
	if !ok {
		return f, false
	}
	nf := f.Clone()
	if conv {
		c := m.Net.Convs()[idx]
		k2 := c.Geom.KH * c.Geom.KW
		// Two axes: SIMD over K²·InC and PE over OutC. Advance the one
		// with the smaller relative jump; fall back to the other.
		ns := nextDivisor(k2*c.Geom.InC, f.ConvSIMD[idx])
		np := nextDivisor(c.OutC, f.ConvPE[idx])
		switch {
		case ns == 0 && np == 0:
			return f, false
		case np == 0,
			ns != 0 && float64(ns)/float64(f.ConvSIMD[idx]) <= float64(np)/float64(f.ConvPE[idx]):
			nf.ConvSIMD[idx] = ns
		default:
			nf.ConvPE[idx] = np
		}
		return nf, true
	}
	d := m.Net.Denses()[idx]
	ns := nextDivisor(d.In, f.DenseSIMD[idx])
	np := nextDivisor(d.Out, f.DensePE[idx])
	switch {
	case ns == 0 && np == 0:
		return f, false
	case np == 0,
		ns != 0 && float64(ns)/float64(f.DenseSIMD[idx]) <= float64(np)/float64(f.DensePE[idx]):
		nf.DenseSIMD[idx] = ns
	default:
		nf.DensePE[idx] = np
	}
	return nf, true
}

// nextDivisor returns the smallest divisor of n strictly greater than cur,
// or 0 when there is none.
func nextDivisor(n, cur int) int {
	for d := max(cur+1, 1); d <= n; d++ {
		if n%d == 0 {
			return d
		}
	}
	return 0
}

// evaluate maps and synthesizes folding f. The bottleneck is the first
// module with the strictly largest cycle count.
func evaluate(m *model.Model, f finn.Folding, flexible bool) (*Result, error) {
	df, err := finn.Map(m, f, finn.Options{Flexible: flexible})
	if err != nil {
		return nil, err
	}
	acc, err := synth.Synthesize(df, synth.ZCU104)
	if err != nil {
		return nil, err
	}
	r := &Result{Folding: f, FPS: df.FPS(), Res: acc.Res}
	worst := int64(-1)
	for _, mod := range df.Modules {
		if c := mod.CyclesPerFrame(); c > worst {
			worst, r.Bottleneck = c, mod.Name
		}
	}
	return r, nil
}

// Why a walk ended before its stop condition held.
var (
	errUnfolded   = errors.New("fully unfolded")
	errIterations = errors.New("iteration budget exhausted")
)

// walk evaluates the greedy trajectory: point 0 is MinimalFolding and
// point i+1 unfolds point i's bottleneck one step, so point i has
// Iterations i. It ends at the first point for which stop holds (nil
// error), when the bottleneck cannot unfold (errUnfolded), after
// MaxIterations steps (errIterations), or when a folding fails to map or
// fit (that error; the failed folding is not a point).
func walk(m *model.Model, opts Options, stop func(*Result) bool) ([]*Result, error) {
	f := MinimalFolding(m)
	var pts []*Result
	for it := 0; ; it++ {
		r, err := evaluate(m, f, opts.Flexible)
		if err != nil {
			return pts, err
		}
		r.Iterations = it
		pts = append(pts, r)
		if stop(r) {
			return pts, nil
		}
		if it >= opts.maxIterations() {
			return pts, errIterations
		}
		nf, ok := unfoldStep(m, f, r.Bottleneck)
		if !ok {
			return pts, errUnfolded
		}
		f = nf
	}
}

// TargetFPS unfolds until the dataflow reaches the target throughput (or
// the design no longer fits the device / cannot unfold further, in which
// case the best reached point is returned along with an error).
func TargetFPS(m *model.Model, target float64, opts Options) (*Result, error) {
	pt := Frontier(m, []float64{target}, opts)[0]
	return pt.Result, pt.Err
}

// MaxFPSWithin unfolds greedily while the design stays within the given
// LUT budget (and the device), returning the fastest point found.
func MaxFPSWithin(m *model.Model, lutBudget int, opts Options) (*Result, error) {
	if lutBudget <= 0 {
		return nil, fmt.Errorf("explore: non-positive LUT budget %d", lutBudget)
	}
	pts, err := walk(m, opts, func(r *Result) bool { return r.Res.LUT > lutBudget })
	if len(pts) == 0 {
		return nil, err
	}
	if pts[0].Res.LUT > lutBudget {
		return nil, fmt.Errorf("explore: minimal folding already needs %d LUTs, budget %d", pts[0].Res.LUT, lutBudget)
	}
	if err == nil {
		// The walk stopped on the first point over budget.
		pts = pts[:len(pts)-1]
	}
	return pts[len(pts)-1], nil
}

// FrontierPoint is one target of a Frontier sweep.
type FrontierPoint struct {
	TargetFPS float64
	Result    *Result
	Err       error
}

// Frontier answers TargetFPS for several throughput targets from one walk
// up to the highest of them. Points are index-aligned with targets;
// targets met by the same design point share its Result.
func Frontier(m *model.Model, targets []float64, opts Options) []FrontierPoint {
	// A NaN target is met by the minimal folding, since no FPS is below it.
	walked, top := false, 0.0
	for _, t := range targets {
		if !(t <= 0) {
			walked, top = true, max(top, t)
		}
	}
	var pts []*Result
	var end error
	if walked {
		pts, end = walk(m, opts, func(r *Result) bool { return r.FPS >= top })
	}
	out := make([]FrontierPoint, len(targets))
	for i, t := range targets {
		out[i] = FrontierPoint{TargetFPS: t}
		out[i].Result, out[i].Err = reach(pts, end, t)
	}
	return out
}

// reach reads one target from a walk that ended with end.
func reach(pts []*Result, end error, target float64) (*Result, error) {
	if target <= 0 {
		return nil, fmt.Errorf("explore: non-positive FPS target %v", target)
	}
	for _, p := range pts {
		if !(p.FPS < target) {
			return p, nil
		}
	}
	if len(pts) == 0 {
		return nil, end
	}
	// The walk stops only at the highest target, so it ended short of
	// this one too, for the same reason.
	last := pts[len(pts)-1]
	switch end {
	case errUnfolded:
		return last, fmt.Errorf("explore: fully unfolded at %.1f FPS, target %.1f unreachable", last.FPS, target)
	case errIterations:
		return last, fmt.Errorf("explore: iteration budget exhausted at %.1f FPS, target %.1f", last.FPS, target)
	default:
		return last, fmt.Errorf("explore: stopped at %.1f FPS: %w", last.FPS, end)
	}
}
