// Package explore searches the PE/SIMD folding design space of a dataflow
// accelerator — the role of FINN's folding-configuration step. Starting
// from a minimal (fully folded) configuration it greedily unfolds the
// current bottleneck layer, one legal divisor step at a time, until a
// throughput target is met or a resource budget is exhausted. The search
// is exact with respect to the cycle and resource models in internal/finn
// and internal/synth, on the paper's board (synth.ZCU104) at finn.ClockHz.
//
// Evaluation is incremental: each greedy step changes the folding of one
// layer, so instead of re-mapping and re-synthesizing the whole network the
// searcher refolds the affected modules in place (finn.Dataflow.Refold) and
// patches only their cycle and resource contributions. Results are also
// memoized in a package-level cache (see cache.go) keyed by the full
// evaluation input, so repeated searches over the same model — the library
// sweep, frontier sweeps, warm benchmarks — skip shared prefixes entirely.
// Both paths are bit-identical to a fresh Map+Synthesize.
package explore

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/parallel"
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

// evalOut is one evaluated design point, whether served from cache or
// computed incrementally.
type evalOut struct {
	fps        float64
	res        synth.Resources
	bottleneck string
}

// searcher carries one greedy search's incremental evaluation state: the
// live dataflow, the folding it currently reflects, and per-module cycle
// and resource contributions so a one-layer folding change only touches
// that layer's modules.
type searcher struct {
	m    *model.Model
	opts Options
	sig  string
	divs *divisorTable

	df     *finn.Dataflow // nil until the first cache miss forces a Map
	cycles []int64
	perMod []synth.Resources
	res    synth.Resources
}

func newSearcher(m *model.Model, opts Options) *searcher {
	return &searcher{
		m: m, opts: opts,
		sig:  modelSignature(m),
		divs: newDivisorTable(),
	}
}

func (s *searcher) key(f finn.Folding) evalKey {
	return evalKey{model: s.sig, fold: foldKey(f), flexible: s.opts.Flexible}
}

// eval returns the dataflow/synthesis outcome of folding f. Cache hits skip
// all model work; misses refold only the modules whose folding differs from
// the searcher's live dataflow and patch their cycle/resource shares, which
// the finn/synth purity invariants make bit-identical to a fresh
// Map+Synthesize (see TestIncrementalMatchesFull).
func (s *searcher) eval(f finn.Folding) (evalOut, error) {
	k := s.key(f)
	if v, ok := cacheGet(k); ok {
		return evalOut{fps: v.FPS, res: v.Res, bottleneck: v.Bottleneck}, nil
	}
	if s.df == nil {
		df, err := finn.Map(s.m, f, finn.Options{Flexible: s.opts.Flexible})
		if err != nil {
			return evalOut{}, err
		}
		s.df = df
		s.cycles = make([]int64, len(df.Modules))
		s.perMod = make([]synth.Resources, len(df.Modules))
		s.res = synth.Overhead()
		for i, mod := range df.Modules {
			s.cycles[i] = mod.CyclesPerFrame()
			r := synth.ModuleResources(mod)
			s.perMod[i] = r
			s.res = s.res.Add(r)
		}
	} else {
		changed, err := s.df.Refold(f)
		if err != nil {
			return evalOut{}, err
		}
		for _, i := range changed {
			s.cycles[i] = s.df.Modules[i].CyclesPerFrame()
			r := synth.ModuleResources(s.df.Modules[i])
			s.res = s.res.Sub(s.perMod[i]).Add(r)
			s.perMod[i] = r
		}
	}
	if !synth.ZCU104.Fits(s.res) {
		// Same failure Synthesize would report; the searcher's dataflow
		// stays at the rejected folding, which is fine — both callers stop
		// evaluating after an error.
		return evalOut{}, fmt.Errorf("synth: %s does not fit %s: need %+v, have %+v",
			s.df.Name, synth.ZCU104.Name, s.res, synth.ZCU104.Resources)
	}
	out := evalOut{fps: s.fps(), res: s.res, bottleneck: s.bottleneck()}
	cachePut(k, evalResult{FPS: out.fps, Res: out.res, Bottleneck: out.bottleneck})
	return out, nil
}

// fps mirrors finn.Dataflow.FPS over the tracked cycle contributions.
func (s *searcher) fps() float64 {
	var ii int64
	for _, c := range s.cycles {
		if c > ii {
			ii = c
		}
	}
	if ii <= 0 {
		return 0
	}
	return finn.ClockHz / float64(ii)
}

// bottleneck mirrors the first-max scan the serial search used: the first
// module with the strictly largest cycle count wins ties.
func (s *searcher) bottleneck() string {
	best, idx := int64(-1), -1
	for i, c := range s.cycles {
		if c > best {
			best, idx = c, i
		}
	}
	if idx < 0 {
		return ""
	}
	return s.df.Modules[idx].Name
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
func (s *searcher) unfoldStep(f finn.Folding, bottleneck string) (finn.Folding, bool) {
	conv, idx, ok := layerIndex(bottleneck)
	if !ok {
		return f, false
	}
	nf := f.Clone()
	if conv {
		c := s.m.Net.Convs()[idx]
		k2 := c.Geom.KH * c.Geom.KW
		// Two axes: SIMD over K²·InC and PE over OutC. Advance the one
		// with the smaller relative jump; fall back to the other.
		ns := s.divs.next(k2*c.Geom.InC, f.ConvSIMD[idx])
		np := s.divs.next(c.OutC, f.ConvPE[idx])
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
	d := s.m.Net.Denses()[idx]
	ns := s.divs.next(d.In, f.DenseSIMD[idx])
	np := s.divs.next(d.Out, f.DensePE[idx])
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

// TargetFPS unfolds until the dataflow reaches the target throughput (or
// the design no longer fits the device / cannot unfold further, in which
// case the best reached point is returned along with an error).
func TargetFPS(m *model.Model, target float64, opts Options) (*Result, error) {
	if target <= 0 {
		return nil, fmt.Errorf("explore: non-positive FPS target %v", target)
	}
	maxIt := opts.maxIterations()
	s := newSearcher(m, opts)
	f := MinimalFolding(m)
	ev, err := s.eval(f)
	if err != nil {
		return nil, err
	}
	res := &Result{Folding: f, FPS: ev.fps, Res: ev.res, Bottleneck: ev.bottleneck}
	for it := 0; it < maxIt && res.FPS < target; it++ {
		nf, ok := s.unfoldStep(res.Folding, res.Bottleneck)
		if !ok {
			return res, fmt.Errorf("explore: fully unfolded at %.1f FPS, target %.1f unreachable", res.FPS, target)
		}
		nev, err := s.eval(nf)
		if err != nil {
			return res, fmt.Errorf("explore: stopped at %.1f FPS: %w", res.FPS, err)
		}
		res.Folding = nf
		res.FPS = nev.fps
		res.Res = nev.res
		res.Iterations = it + 1
		res.Bottleneck = nev.bottleneck
	}
	if res.FPS < target {
		return res, fmt.Errorf("explore: iteration budget exhausted at %.1f FPS, target %.1f", res.FPS, target)
	}
	return res, nil
}

// MaxFPSWithin unfolds greedily while the design stays within the given
// LUT budget (and the device), returning the fastest point found.
func MaxFPSWithin(m *model.Model, lutBudget int, opts Options) (*Result, error) {
	if lutBudget <= 0 {
		return nil, fmt.Errorf("explore: non-positive LUT budget %d", lutBudget)
	}
	maxIt := opts.maxIterations()
	s := newSearcher(m, opts)
	f := MinimalFolding(m)
	ev, err := s.eval(f)
	if err != nil {
		return nil, err
	}
	if ev.res.LUT > lutBudget {
		return nil, fmt.Errorf("explore: minimal folding already needs %d LUTs, budget %d", ev.res.LUT, lutBudget)
	}
	res := &Result{Folding: f, FPS: ev.fps, Res: ev.res, Bottleneck: ev.bottleneck}
	for it := 0; it < maxIt; it++ {
		nf, ok := s.unfoldStep(res.Folding, res.Bottleneck)
		if !ok {
			break
		}
		nev, err := s.eval(nf)
		if err != nil || nev.res.LUT > lutBudget {
			break
		}
		res.Folding = nf
		res.FPS = nev.fps
		res.Res = nev.res
		res.Iterations = it + 1
		res.Bottleneck = nev.bottleneck
	}
	return res, nil
}

// FrontierPoint is one target of a Frontier sweep.
type FrontierPoint struct {
	TargetFPS float64
	Result    *Result
	Err       error
}

// Frontier runs TargetFPS for several throughput targets concurrently over
// at most jobs workers (jobs <= 0 means NumCPU). Each search owns its
// state; the shared evaluation cache only short-circuits recomputation, so
// results are index-aligned with targets and independent of jobs.
func Frontier(m *model.Model, targets []float64, opts Options, jobs int) []FrontierPoint {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	pts := make([]FrontierPoint, len(targets))
	parallel.ForEach(len(targets), jobs, func(i int) {
		r, err := TargetFPS(m, targets[i], opts)
		pts[i] = FrontierPoint{TargetFPS: targets[i], Result: r, Err: err}
	})
	return pts
}
