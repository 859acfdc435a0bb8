// Package edge simulates the paper's evaluation environment (§V): an
// FPGA-equipped Edge server receiving inference requests from IoT cameras
// whose aggregate frame rate fluctuates over time. It runs on the
// discrete-event kernel in internal/sim and drives a serving controller —
// the static FINN baseline, a reconfiguration-only switcher (Fig. 1(b)),
// or the full AdaFlow Runtime Manager.
package edge

import (
	"fmt"
	"math"
	"math/rand"
)

// MinInterval is the shortest redraw interval a workload takes, in
// seconds: a tenth of the 10 ms fluid step. Redraws grow as duration over
// interval, and a tinier one stalls the run.
const MinInterval = 1e-3

// MaxDuration is the longest scenario a run takes, in seconds: the
// longest named scenario lasts 60 s, and a MaxDuration run redrawn at
// MinInterval ends in tens of seconds of host time where an unbounded one
// would never end.
const MaxDuration = 1e4

// Phase is a span of a scenario with its workload fluctuation law: every
// Interval seconds the aggregate rate is redrawn as
// base·(1 + U(−Deviation, +Deviation)).
type Phase struct {
	Start     float64 // seconds from scenario start
	Deviation float64 // fraction, e.g. 0.30
	Interval  float64 // seconds between redraws
}

// Churn models a variable number of connected IoT devices — one of the
// workload factors the paper's introduction motivates adaptation with.
// Every Interval seconds the active-device count takes a uniform step in
// [-MaxStep, +MaxStep], clamped to [MinDevices, MaxDevices].
type Churn struct {
	MinDevices int
	MaxDevices int
	MaxStep    int
	Interval   float64
}

// Validate checks churn invariants.
func (c *Churn) Validate(devices int) error {
	switch {
	case c.MinDevices < 1 || c.MaxDevices < c.MinDevices:
		return fmt.Errorf("edge: churn device range [%d,%d] invalid", c.MinDevices, c.MaxDevices)
	case devices < c.MinDevices || devices > c.MaxDevices:
		return fmt.Errorf("edge: initial device count %d outside churn range [%d,%d]", devices, c.MinDevices, c.MaxDevices)
	case c.MaxStep < 1:
		return fmt.Errorf("edge: churn step %d must be positive", c.MaxStep)
	case !(c.Interval >= MinInterval):
		return fmt.Errorf("edge: churn interval %v below the %v s floor", c.Interval, MinInterval)
	}
	return nil
}

// Diurnal is a slow multiplicative cycle over the aggregate rate: at time
// t the base rate scales by 1 + Amplitude·sin(2π·(t+Shift)/Period). The
// factor is sampled at redraw boundaries (the workload stays piecewise
// constant between them), so pair it with a phase whose interval is small
// against the period.
type Diurnal struct {
	Period    float64 // seconds per cycle
	Amplitude float64 // fraction in [0,1]
	Shift     float64 // seconds of phase offset
}

// Validate checks diurnal invariants.
func (d *Diurnal) Validate() error {
	switch {
	case d.Period <= 0:
		return fmt.Errorf("edge: diurnal period %v must be positive", d.Period)
	case d.Amplitude < 0 || d.Amplitude > 1:
		return fmt.Errorf("edge: diurnal amplitude %v outside [0,1]", d.Amplitude)
	}
	return nil
}

// factor is the multiplicative modulation at time t (1 when d is nil).
func (d *Diurnal) factor(t float64) float64 {
	if d == nil {
		return 1
	}
	return 1 + d.Amplitude*math.Sin(2*math.Pi*(t+d.Shift)/d.Period)
}

// Burst is a deterministic flash crowd: the aggregate rate multiplies by
// Factor while t is in [At, At+Len).
type Burst struct {
	At     float64
	Len    float64
	Factor float64
}

// Validate checks burst invariants.
func (b Burst) Validate() error {
	switch {
	case b.At < 0:
		return fmt.Errorf("edge: burst at %v negative", b.At)
	case b.Len <= 0:
		return fmt.Errorf("edge: burst length %v must be positive", b.Len)
	case b.Factor <= 0:
		return fmt.Errorf("edge: burst factor %v must be positive", b.Factor)
	}
	return nil
}

// Tail makes the per-redraw fluctuation heavy-tailed: on top of the
// phase's uniform deviation, every redraw multiplies the rate by a
// Pareto(Alpha) draw normalized to mean 1 (xm = (Alpha−1)/Alpha), clamped
// to Cap. Most redraws land slightly below base; occasionally one spikes
// far above — the arrival regime "Data-Rate-Aware High-Speed CNN
// Inference on FPGAs" motivates sustained-rate (rather than
// instantaneous) folding selection with.
type Tail struct {
	Alpha float64 // tail index, > 1 so the mean is finite
	Cap   float64 // multiplier clamp (0 = default 10)
}

// Validate checks tail invariants.
func (t *Tail) Validate() error {
	switch {
	case t.Alpha <= 1:
		return fmt.Errorf("edge: tail alpha %v must exceed 1 (finite mean)", t.Alpha)
	case t.Cap < 0:
		return fmt.Errorf("edge: tail cap %v negative", t.Cap)
	}
	return nil
}

// cap returns the effective multiplier clamp.
func (t *Tail) cap() float64 {
	if t.Cap == 0 {
		return 10
	}
	return t.Cap
}

// CorrBurst models correlated multi-camera bursts: the cameras split into
// Groups groups that burst together (a scene event fires every camera
// watching it). Every Every seconds each group independently draws
// Bernoulli(Prob); a firing group multiplies its share of the rate by
// Factor for Len seconds, so with k of G groups active the aggregate rate
// scales by 1 + (Factor−1)·k/G.
type CorrBurst struct {
	Groups int
	Prob   float64
	Factor float64
	Len    float64
	Every  float64
}

// Validate checks correlated-burst invariants.
func (c *CorrBurst) Validate() error {
	switch {
	case c.Groups < 1:
		return fmt.Errorf("edge: corr burst needs at least one group, got %d", c.Groups)
	case c.Groups > 4096:
		// The generator keeps per-group state; bound it to something far
		// beyond any plausible camera fleet.
		return fmt.Errorf("edge: corr burst group count %d exceeds 4096", c.Groups)
	case c.Prob < 0 || c.Prob > 1:
		return fmt.Errorf("edge: corr burst probability %v outside [0,1]", c.Prob)
	case c.Factor <= 0:
		return fmt.Errorf("edge: corr burst factor %v must be positive", c.Factor)
	case c.Len <= 0:
		return fmt.Errorf("edge: corr burst length %v must be positive", c.Len)
	case !(c.Every >= MinInterval):
		return fmt.Errorf("edge: corr burst interval %v below the %v s floor", c.Every, MinInterval)
	}
	return nil
}

// Replay substitutes a recorded piecewise-constant rate for the generated
// one: Rates[i] holds from Times[i] until Times[i+1] (or the scenario
// end). A replay scenario consumes no workload randomness, so a run over
// it reproduces the recorded run exactly (see RateTrace).
type Replay struct {
	Times []float64
	Rates []float64
}

// Validate checks replay invariants.
func (r *Replay) Validate() error {
	switch {
	case len(r.Times) == 0:
		return fmt.Errorf("edge: replay trace is empty")
	case len(r.Times) != len(r.Rates):
		return fmt.Errorf("edge: replay has %d times but %d rates", len(r.Times), len(r.Rates))
	case r.Times[0] != 0:
		return fmt.Errorf("edge: replay must start at t=0, got %v", r.Times[0])
	}
	for i, ti := range r.Times {
		if i > 0 && ti <= r.Times[i-1] {
			return fmt.Errorf("edge: replay sample %d at %v out of order", i, ti)
		}
		if r.Rates[i] < 0 {
			return fmt.Errorf("edge: replay sample %d has negative rate %v", i, r.Rates[i])
		}
	}
	return nil
}

// at returns the recorded rate active at time t.
func (r *Replay) at(t float64) float64 {
	// Binary search for the last sample at or before t.
	lo, hi := 0, len(r.Times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.Times[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return r.Rates[lo]
}

// Scenario describes a workload evaluation (paper §V: 20 devices at 30 FPS
// for 25 s). Beyond the paper's phase law, a scenario may compose the
// grammar's modulation primitives (ParseScenario): diurnal cycles,
// deterministic flash crowds, heavy-tailed redraws, correlated
// multi-camera bursts, device churn, or a recorded-trace replay.
type Scenario struct {
	Name         string
	Duration     float64
	Devices      int
	PerDeviceFPS float64
	Phases       []Phase
	// Churn, when non-nil, varies the connected-device count over time.
	Churn *Churn
	// Diurnal, when non-nil, applies a slow sinusoidal cycle to the rate.
	Diurnal *Diurnal
	// Bursts are deterministic flash crowds (each multiplies the rate over
	// its window; overlapping bursts compound).
	Bursts []Burst
	// Tail, when non-nil, makes per-redraw fluctuation heavy-tailed.
	Tail *Tail
	// Corr, when non-nil, adds correlated multi-camera burst groups.
	Corr *CorrBurst
	// Replay, when non-nil, substitutes a recorded rate trace for the
	// generated workload; the generator then consumes no randomness and
	// every other fluctuation law is ignored.
	Replay *Replay
}

// Validate checks scenario invariants.
func (s Scenario) Validate() error {
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("edge: scenario %q has non-positive duration", s.Name)
	case !(s.Duration <= MaxDuration): // NaN too
		return fmt.Errorf("edge: scenario %q duration %v above the %v s cap", s.Name, s.Duration, MaxDuration)
	case s.Devices <= 0 || s.PerDeviceFPS <= 0:
		return fmt.Errorf("edge: scenario %q has non-positive workload", s.Name)
	case len(s.Phases) == 0 && s.Replay == nil:
		return fmt.Errorf("edge: scenario %q has no phases", s.Name)
	}
	if s.Replay != nil {
		if err := s.Replay.Validate(); err != nil {
			return fmt.Errorf("edge: scenario %q: %w", s.Name, err)
		}
		// Replay overrides every generated fluctuation; phases are optional.
		if len(s.Phases) == 0 {
			return nil
		}
	}
	prev := -1.0
	for i, p := range s.Phases {
		if p.Start < 0 || p.Start <= prev && i > 0 {
			return fmt.Errorf("edge: scenario %q phase %d starts out of order", s.Name, i)
		}
		if p.Deviation < 0 || p.Deviation > 1 {
			return fmt.Errorf("edge: scenario %q phase %d deviation %v out of [0,1]", s.Name, i, p.Deviation)
		}
		if !(p.Interval >= MinInterval) {
			return fmt.Errorf("edge: scenario %q phase %d interval %v below the %v s floor", s.Name, i, p.Interval, MinInterval)
		}
		prev = p.Start
	}
	if s.Phases[0].Start != 0 {
		return fmt.Errorf("edge: scenario %q must start a phase at t=0", s.Name)
	}
	if s.Churn != nil {
		if err := s.Churn.Validate(s.Devices); err != nil {
			return err
		}
	}
	if s.Diurnal != nil {
		if err := s.Diurnal.Validate(); err != nil {
			return err
		}
	}
	for _, b := range s.Bursts {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	if s.Tail != nil {
		if err := s.Tail.Validate(); err != nil {
			return err
		}
	}
	if s.Corr != nil {
		if err := s.Corr.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// phaseAt returns the active phase at time t.
func (s Scenario) phaseAt(t float64) Phase {
	cur := s.Phases[0]
	for _, p := range s.Phases {
		if p.Start <= t {
			cur = p
		}
	}
	return cur
}

// mustParse backs the historical scenario constructors with the grammar;
// the registered specs are parsed in tests, so a failure here is a
// programming error.
func mustParse(spec string) Scenario {
	s, err := ParseScenario(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// Scenario1 is the paper's stable environment: ±30 % deviation redrawn
// every 5 s. It is the named grammar spec "paper1".
func Scenario1() Scenario { return mustParse("paper1") }

// Scenario2 is the unpredictable environment: ±70 % every 500 ms. It is
// the named grammar spec "paper2".
func Scenario2() Scenario { return mustParse("paper2") }

// ScenarioChurn extends Scenario 1 with device churn: cameras join and
// leave the server every 2 s (an extension experiment; the paper motivates
// it in §I but does not evaluate it). It is the named grammar spec
// "paper-churn".
func ScenarioChurn() Scenario { return mustParse("paper-churn") }

// Scenario12 is the paper's hybrid: stable up to 15 s, then
// unpredictable. It is the named grammar spec "paper12".
func Scenario12() Scenario { return mustParse("paper12") }

// Load is one stream's (or one group of identical streams') contribution
// to a composite scenario: Streams cameras each sustaining FPS frames per
// second, fluctuating by ±Deviation redrawn every Interval seconds. It is
// the per-stream unit the cluster scheduler composes pool workloads from.
type Load struct {
	Streams   int
	FPS       float64
	Deviation float64 // fraction in [0,1]; 0 = steady
	Interval  float64 // seconds between redraws; 0 = 5 s default
	// Diurnal optionally modulates this load with a sinusoidal cycle (a
	// stream declared with scn=diurnal, say). Compose carries it into the
	// composite scenario with rate-weighted amplitude.
	Diurnal *Diurnal
}

// Compose builds the aggregate Scenario serving a heterogeneous set of
// per-stream loads for duration seconds: the device count is the total
// stream count, the per-device rate is chosen so the scenario's base rate
// is exactly the summed load, the phase deviation is the rate-weighted
// mean of the loads' deviations, and the redraw interval is the tightest
// of the loads'. Diurnal components aggregate the same way — the cycle's
// amplitude is the rate-weighted mean over all loads (non-diurnal loads
// damp it), with period and shift taken from the highest-rate diurnal
// load. An empty or zero-rate load set is an error — a pool with no
// streams placed on it has no scenario to run.
func Compose(name string, duration float64, loads []Load) (Scenario, error) {
	var streams int
	var rate, wdev, wamp float64
	var diurnal *Diurnal
	var diurnalRate float64
	interval := 0.0
	for i, l := range loads {
		switch {
		case l.Streams <= 0:
			return Scenario{}, fmt.Errorf("edge: load %d has non-positive stream count %d", i, l.Streams)
		case l.FPS <= 0:
			return Scenario{}, fmt.Errorf("edge: load %d has non-positive rate %v", i, l.FPS)
		case l.Deviation < 0 || l.Deviation > 1:
			return Scenario{}, fmt.Errorf("edge: load %d deviation %v outside [0,1]", i, l.Deviation)
		case l.Interval < 0:
			return Scenario{}, fmt.Errorf("edge: load %d interval %v negative", i, l.Interval)
		}
		if l.Diurnal != nil {
			if err := l.Diurnal.Validate(); err != nil {
				return Scenario{}, fmt.Errorf("edge: load %d: %w", i, err)
			}
		}
		r := float64(l.Streams) * l.FPS
		streams += l.Streams
		rate += r
		wdev += r * l.Deviation
		if l.Diurnal != nil {
			wamp += r * l.Diurnal.Amplitude
			if r > diurnalRate {
				diurnal, diurnalRate = l.Diurnal, r
			}
		}
		iv := l.Interval
		if iv == 0 {
			iv = 5
		}
		if interval == 0 || iv < interval {
			interval = iv
		}
	}
	if streams == 0 || rate <= 0 {
		return Scenario{}, fmt.Errorf("edge: composite scenario %q has no load", name)
	}
	scn := Scenario{
		Name:         name,
		Duration:     duration,
		Devices:      streams,
		PerDeviceFPS: rate / float64(streams),
		Phases:       []Phase{{Start: 0, Deviation: wdev / rate, Interval: interval}},
	}
	if diurnal != nil {
		scn.Diurnal = &Diurnal{Period: diurnal.Period, Amplitude: wamp / rate, Shift: diurnal.Shift}
	}
	return scn, nil
}

// Workload generates the piecewise-constant incoming rate of a scenario
// run. Rates are redrawn at phase-interval boundaries (and device counts
// at churn ticks) with the given RNG. Scenarios without the optional
// modulation components consume RNG draws in exactly the historical order
// (churn steps, then the phase deviation), so paper runs stay
// bit-identical.
type Workload struct {
	scn       Scenario
	rng       *rand.Rand
	rate      float64
	devices   int
	churnTick int       // churn intervals already applied
	corrTick  int       // correlated-burst intervals already applied
	corrUntil []float64 // per-group burst expiry times
}

// NewWorkload draws the initial rate.
func NewWorkload(scn Scenario, rng *rand.Rand) (*Workload, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	w := &Workload{scn: scn, rng: rng, devices: scn.Devices}
	w.Redraw(0)
	return w, nil
}

// Rate returns the current incoming FPS.
func (w *Workload) Rate() float64 { return w.rate }

// Redraw applies any due churn and correlated-burst ticks, redraws the
// rate for the phase active at time t, applies the scenario's modulation
// laws (tail, diurnal, bursts, correlated groups), and returns it. Under
// replay it looks the recorded rate up instead and consumes no
// randomness.
func (w *Workload) Redraw(t float64) float64 {
	if r := w.scn.Replay; r != nil {
		w.rate = r.at(t)
		return w.rate
	}
	if c := w.scn.Churn; c != nil {
		due := int(t / c.Interval)
		for ; w.churnTick < due; w.churnTick++ {
			step := w.rng.Intn(2*c.MaxStep+1) - c.MaxStep
			w.devices += step
			if w.devices < c.MinDevices {
				w.devices = c.MinDevices
			}
			if w.devices > c.MaxDevices {
				w.devices = c.MaxDevices
			}
		}
	}
	if c := w.scn.Corr; c != nil {
		if w.corrUntil == nil {
			w.corrUntil = make([]float64, c.Groups)
		}
		// One Bernoulli draw per group per elapsed tick, in (tick, group)
		// order, so the draw sequence is independent of when Redraw runs.
		due := int(t / c.Every)
		for ; w.corrTick < due; w.corrTick++ {
			at := float64(w.corrTick+1) * c.Every
			for g := range w.corrUntil {
				if w.rng.Float64() < c.Prob {
					w.corrUntil[g] = at + c.Len
				}
			}
		}
	}
	p := w.scn.phaseAt(t)
	dev := (w.rng.Float64()*2 - 1) * p.Deviation
	rate := float64(w.devices) * w.scn.PerDeviceFPS * (1 + dev)
	if tl := w.scn.Tail; tl != nil {
		// Mean-1 Pareto multiplier: xm·(1−u)^(−1/α) with xm = (α−1)/α.
		xm := (tl.Alpha - 1) / tl.Alpha
		f := xm * math.Pow(1-w.rng.Float64(), -1/tl.Alpha)
		if cp := tl.cap(); f > cp {
			f = cp
		}
		rate *= f
	}
	rate *= w.scn.Diurnal.factor(t)
	for _, b := range w.scn.Bursts {
		if t >= b.At && t < b.At+b.Len {
			rate *= b.Factor
		}
	}
	if c := w.scn.Corr; c != nil {
		active := 0
		for _, u := range w.corrUntil {
			if u > t {
				active++
			}
		}
		rate *= 1 + (c.Factor-1)*float64(active)/float64(c.Groups)
	}
	w.rate = rate
	if w.rate < 0 {
		w.rate = 0
	}
	return w.rate
}

// NextBoundary returns the next redraw time strictly after t.
func (w *Workload) NextBoundary(t float64) float64 {
	if r := w.scn.Replay; r != nil {
		// First recorded sample strictly after t, +Inf when exhausted (the
		// run loops compare against the scenario duration and stop).
		lo, hi := 0, len(r.Times)
		for lo < hi {
			mid := (lo + hi) / 2
			if r.Times[mid] <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(r.Times) {
			return r.Times[lo]
		}
		return math.Inf(1)
	}
	p := w.scn.phaseAt(t)
	// Align to the phase's interval grid from its start. When the grid is
	// float-adverse (intervals with no exact binary representation),
	// rounding can land the computed tick exactly on t; returning t would
	// let the run reschedule a redraw at the current time forever, so
	// advance until the boundary is strictly after t as documented.
	n := int((t-p.Start)/p.Interval) + 1
	next := p.Start + float64(n)*p.Interval
	for next <= t {
		n++
		next = p.Start + float64(n)*p.Interval
	}
	// A later phase may begin before the next interval tick.
	for _, q := range w.scn.Phases {
		if q.Start > t && q.Start < next {
			next = q.Start
		}
	}
	// Churn ticks are boundaries too.
	if c := w.scn.Churn; c != nil {
		m := int(t/c.Interval) + 1
		ct := float64(m) * c.Interval
		for ct <= t {
			m++
			ct = float64(m) * c.Interval
		}
		if ct < next {
			next = ct
		}
	}
	// Burst edges (start and end) snap the rate discontinuously.
	for _, b := range w.scn.Bursts {
		for _, e := range [2]float64{b.At, b.At + b.Len} {
			if e > t && e < next {
				next = e
			}
		}
	}
	// Correlated-burst draw ticks and the expiry of any active group.
	if c := w.scn.Corr; c != nil {
		m := int(t/c.Every) + 1
		ct := float64(m) * c.Every
		for ct <= t {
			m++
			ct = float64(m) * c.Every
		}
		if ct < next {
			next = ct
		}
		for _, u := range w.corrUntil {
			if u > t && u < next {
				next = u
			}
		}
	}
	return next
}
