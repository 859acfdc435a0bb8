// Package fault implements a deterministic fault-injection layer for the
// serving path: a seeded, schedulable plan of runtime faults —
// reconfiguration failures and stalls, workload-sensor dropout and spike
// noise, accuracy-evaluator drift, and board-level failures (crashes,
// hangs, frame corruption, brownouts) — injected into the edge-server
// simulation (internal/edge), the Runtime Manager (internal/manager) and
// the supervised multi-FPGA pool (internal/multiedge).
//
// Every fault is drawn from an independent RNG stream derived from the
// plan seed (sim.RNG), and the discrete-event engine queries the injector
// in a deterministic order, so an entire chaos run replays bit-identically
// from (plan, seed). That determinism is what makes golden-trace and
// chaos-invariant tests possible.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault classes. ReconfigFail makes an attempted FPGA reconfiguration
// fail outright (the stall is paid but the new configuration does not
// take effect); ReconfigStall multiplies a successful reconfiguration's
// nominal stall; SensorDropout suppresses a workload observation (the
// controller keeps serving its last-known-good model); SensorSpike
// multiplies an observation by noise; AccuracyDrift perturbs the measured
// serving accuracy (evaluator noise — the true model accuracy is
// unchanged).
//
// DriftSustained models real distribution shift rather than evaluator
// noise: a single engage draw per rule (at the first query inside its
// window) decides whether the shift happens at all, and an engaged rule
// then lowers measured accuracy by Mag for as long as its window is
// active — ramping toward Mag at Slope accuracy-points/second when Slope
// is set (a step change otherwise), and recovering on its own Hold
// seconds after reaching full magnitude when Hold is set. It is the
// fault class the closed adaptation loop (internal/adapt) detects and
// retrains against.
//
// The board-level classes are drawn by a pool supervisor at heartbeat
// times, per board (Injector.Board). BoardCrash kills a board outright
// until it is repaired; BoardHang makes a board stop answering heartbeats
// for a while (it keeps its state and rejoins when the hang clears);
// FrameCorrupt transiently corrupts a fraction of a board's served frames
// (wrong results, lowering its effective accuracy); BoardBrownout derates
// a board's throughput (slow-board mode) for a while.
const (
	ReconfigFail Kind = iota
	ReconfigStall
	SensorDropout
	SensorSpike
	AccuracyDrift
	DriftSustained
	BoardCrash
	BoardHang
	FrameCorrupt
	BoardBrownout
	numKinds
)

var kindNames = [numKinds]string{
	ReconfigFail:   "reconfig-fail",
	ReconfigStall:  "reconfig-stall",
	SensorDropout:  "sensor-dropout",
	SensorSpike:    "sensor-spike",
	AccuracyDrift:  "accuracy-drift",
	DriftSustained: "drift-sustained",
	BoardCrash:     "board-crash",
	BoardHang:      "board-hang",
	FrameCorrupt:   "frame-corrupt",
	BoardBrownout:  "board-brownout",
}

// boardLevel reports whether the kind is a per-board fault (drawn by the
// pool supervisor, supports the board= and repair= rule parameters).
func boardLevel(k Kind) bool { return k >= BoardCrash && k < numKinds }

// AnyBoard targets a board-level rule at every board of the pool.
const AnyBoard = -1

// String names the kind (the spelling ParsePlan accepts).
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// defaultMag is the per-kind magnitude used when a rule leaves Mag unset:
// stalls take 3× the nominal time, spikes scale observations by up to
// ±100 %, drift subtracts 5 accuracy points, sustained drift 10 points,
// corruption garbles 20 % of a board's frames, a brownout halves a
// board's throughput.
func defaultMag(k Kind) float64 {
	switch k {
	case ReconfigStall:
		return 3
	case SensorSpike:
		return 1
	case AccuracyDrift:
		return -0.05
	case DriftSustained:
		return -0.10
	case FrameCorrupt:
		return 0.2
	case BoardBrownout:
		return 0.5
	}
	return 0
}

// defaultRepair is the per-kind fault duration used when a board-level
// rule leaves Repair unset: a crashed board takes 5 s to repair, a hang
// lasts 1 s, corruption 0.5 s, a brownout 2 s.
func defaultRepair(k Kind) float64 {
	switch k {
	case BoardCrash:
		return 5
	case BoardHang:
		return 1
	case FrameCorrupt:
		return 0.5
	case BoardBrownout:
		return 2
	}
	return 0
}

// Rule is one scheduled fault class of a plan.
type Rule struct {
	Kind Kind
	// Prob is the per-query probability in [0,1] that the fault fires
	// while the rule is active.
	Prob float64
	// Start and End bound the active window in simulation seconds
	// ([Start, End)); End = 0 leaves the window open-ended.
	Start, End float64
	// Mag is the kind-specific magnitude: the stall factor (ReconfigStall,
	// ≥ 1), the relative spike amplitude (SensorSpike: observations scale
	// by 1 + U(−Mag, +Mag)), the accuracy delta (AccuracyDrift), the
	// corrupted-frame fraction in (0,1] (FrameCorrupt), the throughput
	// factor in (0,1) (BoardBrownout), or the full shift depth
	// (DriftSustained). Zero selects the kind's default.
	Mag float64
	// Slope ramps a DriftSustained rule toward Mag at this many
	// accuracy-points per second from window start; 0 is a step change to
	// full magnitude. Only valid on DriftSustained.
	Slope float64
	// Hold makes an engaged DriftSustained rule recover on its own this
	// many seconds after reaching full magnitude; 0 holds the shift until
	// the window closes. Only valid on DriftSustained.
	Hold float64
	// Board targets a board-level rule at one 0-based board index;
	// AnyBoard (the ParsePlan default) targets every board. Only valid on
	// board-level kinds. Note the zero value targets board 0 — rules built
	// in code for a single board can leave it, rules meant for the whole
	// pool must set AnyBoard explicitly.
	Board int
	// Repair is how long the fault persists once fired, in simulation
	// seconds: crash repair time, hang duration, corruption window, or
	// brownout duration. Zero selects the kind's default. Only valid on
	// board-level kinds.
	Repair float64
}

// active reports whether the rule's window covers time t.
func (r Rule) active(t float64) bool {
	return t >= r.Start && (r.End <= 0 || t < r.End)
}

// overlaps reports whether the rule's half-open window [Start, End)
// overlaps the half-open span [from, to). An instant t is the degenerate
// span [t, t+0) under active, so the two predicates agree wherever both
// apply.
func (r Rule) overlaps(from, to float64) bool {
	return r.Start < to && (r.End <= 0 || r.End > from)
}

// Validate checks one rule.
func (r Rule) Validate() error {
	if r.Kind < 0 || r.Kind >= numKinds {
		return fmt.Errorf("fault: unknown kind %d", int(r.Kind))
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"p", r.Prob}, {"start", r.Start}, {"end", r.End}, {"mag", r.Mag},
		{"slope", r.Slope}, {"hold", r.Hold}, {"repair", r.Repair}} {
		if err := spec.Finite(f.key, f.v); err != nil {
			return fmt.Errorf("fault: %s %w", r.Kind, err)
		}
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: %s probability %v outside [0,1]", r.Kind, r.Prob)
	}
	if r.Start < 0 {
		return fmt.Errorf("fault: %s start %v negative", r.Kind, r.Start)
	}
	if r.End != 0 && r.End <= r.Start {
		return fmt.Errorf("fault: %s window [%v,%v) empty", r.Kind, r.Start, r.End)
	}
	if r.Kind == ReconfigStall && r.Mag != 0 && r.Mag < 1 {
		return fmt.Errorf("fault: %s factor %v below 1", r.Kind, r.Mag)
	}
	if r.Kind == SensorSpike && r.Mag < 0 {
		return fmt.Errorf("fault: %s amplitude %v negative", r.Kind, r.Mag)
	}
	if r.Kind != DriftSustained && (r.Slope != 0 || r.Hold != 0) {
		return fmt.Errorf("fault: %s does not take slope/hold ramp parameters", r.Kind)
	}
	if r.Slope < 0 {
		return fmt.Errorf("fault: %s slope %v negative", r.Kind, r.Slope)
	}
	if r.Hold < 0 {
		return fmt.Errorf("fault: %s hold %v negative", r.Kind, r.Hold)
	}
	if !boardLevel(r.Kind) {
		if r.Board != 0 && r.Board != AnyBoard {
			return fmt.Errorf("fault: %s does not take a board target", r.Kind)
		}
		if r.Repair != 0 {
			return fmt.Errorf("fault: %s does not take a repair time", r.Kind)
		}
		return nil
	}
	if r.Board < AnyBoard {
		return fmt.Errorf("fault: %s board index %d invalid", r.Kind, r.Board)
	}
	if r.Repair < 0 {
		return fmt.Errorf("fault: %s repair time %v negative", r.Kind, r.Repair)
	}
	if r.Kind == FrameCorrupt && r.Mag != 0 && (r.Mag < 0 || r.Mag > 1) {
		return fmt.Errorf("fault: %s fraction %v outside (0,1]", r.Kind, r.Mag)
	}
	if r.Kind == BoardBrownout && r.Mag != 0 && (r.Mag <= 0 || r.Mag >= 1) {
		return fmt.Errorf("fault: %s throughput factor %v outside (0,1)", r.Kind, r.Mag)
	}
	return nil
}

// Plan is a schedulable set of fault rules. The zero value is a valid,
// fault-free plan.
type Plan struct {
	Rules []Rule
}

// Validate checks every rule.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// String renders the plan in the canonical form ParsePlan accepts.
func (p *Plan) String() string {
	var parts []string
	for _, r := range p.Rules {
		s := fmt.Sprintf("%s:p=%v", r.Kind, r.Prob)
		if r.Start != 0 {
			s += fmt.Sprintf(",start=%v", r.Start)
		}
		if r.End != 0 {
			s += fmt.Sprintf(",end=%v", r.End)
		}
		if r.Mag != 0 {
			s += fmt.Sprintf(",mag=%v", r.Mag)
		}
		if r.Kind == DriftSustained {
			if r.Slope != 0 {
				s += fmt.Sprintf(",slope=%v", r.Slope)
			}
			if r.Hold != 0 {
				s += fmt.Sprintf(",hold=%v", r.Hold)
			}
		}
		if boardLevel(r.Kind) {
			if r.Board != AnyBoard {
				s += fmt.Sprintf(",board=%d", r.Board)
			}
			if r.Repair != 0 {
				s += fmt.Sprintf(",repair=%v", r.Repair)
			}
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses a plan spec of semicolon-separated rules, each
// "kind:key=value,..." in the syntax of internal/spec, e.g.
//
//	reconfig-fail:p=0.7,start=2,end=12;sensor-dropout:p=0.25;sensor-spike:p=0.2,mag=1.5
//	board-crash:p=1,start=5,end=5.3,board=1,repair=8;board-brownout:p=0.1,mag=0.4
//	drift-sustained:p=1,start=5,mag=-0.15,slope=0.05,hold=10
//
// Keys: p (probability, required), start, end (window seconds), mag
// (kind-specific magnitude), slope and hold (DriftSustained ramp rate in
// points/sec and self-recovery delay — omit both for a step shift held
// until the window closes), and — for board-level kinds only — board
// (0-based target board; omitted = every board) and repair (fault
// duration in seconds). An unknown kind, or a key the kind does not take,
// is a hard parse error (with a did-you-mean hint for near-misses);
// unknown faults never degrade to a silent no-op. An empty spec yields an
// empty plan.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	for _, d := range spec.Split(s, ";") {
		k, err := spec.Lookup("kind", d.Head, kindNames[:])
		if err != nil {
			return nil, fmt.Errorf("fault: %w", err)
		}
		kind := Kind(k)
		if err := d.Check(ruleKeys(kind)); err != nil {
			return nil, fmt.Errorf("fault: rule %q: %w", d.Text, err)
		}
		r := Rule{Kind: kind}
		if boardLevel(kind) {
			r.Board = AnyBoard
		}
		seenP := false
		for _, kv := range d.Params {
			if kv.Key == "board" {
				if r.Board, err = strconv.Atoi(kv.Value); err != nil {
					return nil, fmt.Errorf("fault: rule %q: board=%q is not an integer", d.Text, kv.Value)
				}
				continue
			}
			f, err := spec.Float(kv.Key, kv.Value)
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: %w", d.Text, err)
			}
			switch kv.Key {
			case "p":
				r.Prob, seenP = f, true
			case "start":
				r.Start = f
			case "end":
				r.End = f
			case "mag":
				r.Mag = f
			case "slope":
				r.Slope = f
			case "hold":
				r.Hold = f
			case "repair":
				r.Repair = f
			}
		}
		if !seenP {
			return nil, fmt.Errorf("fault: rule %q: missing probability p=", d.Text)
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

// ruleKeys lists the keys a kind takes: the common four, plus its ramp
// for drift-sustained or its target and repair time for a board-level
// kind.
func ruleKeys(k Kind) []string {
	switch {
	case k == DriftSustained:
		return []string{"p", "start", "end", "mag", "slope", "hold"}
	case boardLevel(k):
		return []string{"p", "start", "end", "mag", "board", "repair"}
	}
	return []string{"p", "start", "end", "mag"}
}

// Counts tallies injected faults, by class. The board-level counters tally
// fired draws; a fire against an already-dead board still counts (the pool
// tracks actual state transitions separately in metrics.PoolStats).
type Counts struct {
	ReconfigFailures int
	ReconfigStalls   int
	SensorDropouts   int
	SensorSpikes     int
	AccuracyDrifts   int
	SustainedDrifts  int
	BoardCrashes     int
	BoardHangs       int
	FrameCorruptions int
	BoardBrownouts   int
}

// Injector draws scheduled faults from a plan. Each fault kind the plan
// uses consumes its own deterministic RNG stream (nil for the others), so
// runs that issue the same query sequence (as the discrete-event
// simulations do) replay bit-identically.
// An Injector is single-run state: build a fresh one per run.
type Injector struct {
	plan    Plan
	streams [numKinds]*rand.Rand
	counts  Counts

	// sustainedDecided/-Engaged hold the one engage draw each
	// DriftSustained rule gets: decided flips at the first query inside
	// the rule's window, engaged records whether the draw fired. One draw
	// per rule — never per query — keeps the stream consumption (and so
	// the whole run) independent of how densely the injector is polled.
	sustainedDecided []bool
	sustainedEngaged []bool

	// failStreak counts consecutive reconfiguration failures, so the
	// tracer can mark the recovery when a later attempt goes through.
	failStreak int
	// trace, when enabled, receives one "fault/inject" event per fired
	// fault and a "fault/recover" event when a reconfiguration succeeds
	// after failures. Emission is outside the RNG draw path, so traced and
	// untraced runs consume identical randomness.
	trace *obs.Trace
}

// SetTracer attaches an observability trace (nil detaches).
func (in *Injector) SetTracer(tr *obs.Trace) { in.trace = tr }

// NewInjector validates the plan and derives from seed a stream for each
// kind the plan has rules for. Every draw of a kind sits behind a rule of
// that kind, so kinds without rules need no stream, and each stream
// yields the same sequence whatever other kinds the plan holds. A nil
// plan yields a fault-free injector with no streams.
func NewInjector(p *Plan, seed int64) (*Injector, error) {
	in := &Injector{}
	if p != nil {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		in.plan.Rules = append(in.plan.Rules, p.Rules...)
	}
	in.sustainedDecided = make([]bool, len(in.plan.Rules))
	in.sustainedEngaged = make([]bool, len(in.plan.Rules))
	for _, r := range in.plan.Rules {
		if in.streams[r.Kind] == nil {
			in.streams[r.Kind] = sim.RNG(seed, "fault/"+kindNames[r.Kind])
		}
	}
	return in, nil
}

// firing is the one rule walk behind every draw: in plan order, each rule
// of the given kind that eligible accepts consumes exactly one draw from
// the kind's stream, and the first whose draw falls below its Prob wins.
// Ineligible rules consume no draw, and a kind with no stream has no
// rules to walk. It returns whether a rule fired and that rule's
// magnitude and repair time (or the kind defaults).
func (in *Injector) firing(kind Kind, eligible func(*Rule) bool) (fired bool, mag, repair float64) {
	if in.streams[kind] == nil {
		return false, 0, 0
	}
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Kind != kind || !eligible(r) {
			continue
		}
		if in.streams[kind].Float64() < r.Prob {
			mag, repair = r.Mag, r.Repair
			if mag == 0 {
				mag = defaultMag(kind)
			}
			if repair == 0 {
				repair = defaultRepair(kind)
			}
			return true, mag, repair
		}
	}
	return false, 0, 0
}

// fires draws whether a rule of the given kind active at time now
// triggers, returning its magnitude.
func (in *Injector) fires(kind Kind, now float64) (bool, float64) {
	fired, mag, _ := in.firing(kind, func(r *Rule) bool { return r.active(now) })
	return fired, mag
}

// BoardOutcome is the injected board-level fate drawn at one supervisor
// heartbeat for one board. Durations are simulation seconds from the draw.
type BoardOutcome struct {
	// Crash: the board dies now and needs CrashRepair seconds of repair.
	Crash       bool
	CrashRepair float64
	// Hang: the board stops answering heartbeats for HangFor seconds.
	Hang    bool
	HangFor float64
	// Corrupt: CorruptFrac of the board's served frames yield wrong
	// results for CorruptFor seconds.
	Corrupt     bool
	CorruptFrac float64
	CorruptFor  float64
	// Brownout: the board's throughput is derated to BrownoutFactor of
	// nominal for BrownoutFor seconds.
	Brownout       bool
	BrownoutFactor float64
	BrownoutFor    float64
}

// Board draws the board-level faults for one board at time now. The pool
// supervisor calls it once per board per heartbeat in board order, so the
// draw sequence — and with it the whole chaos run — replays
// bit-identically from (plan, seed). Plans with no board-level rules
// consume no randomness here.
func (in *Injector) Board(now float64, board int) BoardOutcome {
	// Rules targeting a different board are skipped without a draw.
	eligible := func(r *Rule) bool {
		return r.active(now) && (r.Board == AnyBoard || r.Board == board)
	}
	var out BoardOutcome
	if c, _, rep := in.firing(BoardCrash, eligible); c {
		in.counts.BoardCrashes++
		out.Crash, out.CrashRepair = true, rep
		in.injectBoard(now, BoardCrash, 0, board)
	}
	if h, _, rep := in.firing(BoardHang, eligible); h {
		in.counts.BoardHangs++
		out.Hang, out.HangFor = true, rep
		in.injectBoard(now, BoardHang, 0, board)
	}
	if c, mag, rep := in.firing(FrameCorrupt, eligible); c {
		in.counts.FrameCorruptions++
		out.Corrupt, out.CorruptFrac, out.CorruptFor = true, mag, rep
		in.injectBoard(now, FrameCorrupt, mag, board)
	}
	if b, mag, rep := in.firing(BoardBrownout, eligible); b {
		in.counts.BoardBrownouts++
		out.Brownout, out.BrownoutFactor, out.BrownoutFor = true, mag, rep
		in.injectBoard(now, BoardBrownout, mag, board)
	}
	return out
}

// injectBoard emits the per-fire trace event for a board-level fault.
func (in *Injector) injectBoard(now float64, kind Kind, mag float64, board int) {
	if !in.trace.Enabled() {
		return
	}
	in.trace.Emit(now, obs.FaultCat, "inject",
		obs.S("kind", kind.String()), obs.F("mag", mag), obs.I("board", board))
}

// ReconfigOutcome is the injected fate of one reconfiguration attempt.
type ReconfigOutcome struct {
	// Failed: the attempt stalls the server for its nominal cost and then
	// fails; the previous configuration keeps serving.
	Failed bool
	// StallFactor scales the nominal stall of a successful attempt (≥ 1;
	// 1 = nominal).
	StallFactor float64
}

// Reconfig draws the outcome of a reconfiguration attempt at time now.
func (in *Injector) Reconfig(now float64) ReconfigOutcome {
	out := ReconfigOutcome{StallFactor: 1}
	if failed, _ := in.fires(ReconfigFail, now); failed {
		in.counts.ReconfigFailures++
		in.failStreak++
		out.Failed = true
		in.inject(now, ReconfigFail, 0)
		return out
	}
	if in.failStreak > 0 {
		if in.trace.Enabled() {
			in.trace.Emit(now, obs.FaultCat, "recover",
				obs.I("after_failures", in.failStreak))
		}
		in.failStreak = 0
	}
	if stalled, mag := in.fires(ReconfigStall, now); stalled {
		in.counts.ReconfigStalls++
		out.StallFactor = mag
		in.inject(now, ReconfigStall, mag)
	}
	return out
}

// inject emits the per-fire trace event.
func (in *Injector) inject(now float64, kind Kind, mag float64) {
	if !in.trace.Enabled() {
		return
	}
	in.trace.Emit(now, obs.FaultCat, "inject",
		obs.S("kind", kind.String()), obs.F("mag", mag))
}

// Observe passes a workload observation through the sensor faults. It
// returns the (possibly noisy) observed rate and ok=false on dropout —
// the observation is unavailable and the controller should keep its
// last-known-good configuration.
func (in *Injector) Observe(now, actual float64) (obs float64, ok bool) {
	if dropped, _ := in.fires(SensorDropout, now); dropped {
		in.counts.SensorDropouts++
		in.inject(now, SensorDropout, 0)
		return 0, false
	}
	obs = actual
	if spiked, mag := in.fires(SensorSpike, now); spiked {
		in.counts.SensorSpikes++
		u := in.streams[SensorSpike].Float64()*2 - 1
		obs *= 1 + u*mag
		if obs < 0 {
			obs = 0
		}
		in.inject(now, SensorSpike, mag)
	}
	return obs, true
}

// Drift draws the accuracy-evaluator drift at the instant now: the delta
// to add to the measured serving accuracy (0 when inactive). Event-level
// edge runs call it at each frame-completion instant; the fluid loop
// accounts in steps and uses DriftSpan so the two modes share boundary
// semantics.
func (in *Injector) Drift(now float64) float64 {
	if drifted, mag := in.fires(AccuracyDrift, now); drifted {
		in.counts.AccuracyDrifts++
		in.inject(now, AccuracyDrift, mag)
		return mag
	}
	return 0
}

// DriftSpan draws the accuracy-evaluator drift for the accounting span
// [from, to): a rule is eligible iff its window overlaps the span. This is
// the fluid-mode counterpart of Drift, and the two agree on boundary
// semantics by construction: a window starting exactly on a step boundary
// perturbs the step that begins there (never the step that ends there),
// and a sub-step window that contains no step boundary still perturbs
// exactly the one step it overlaps — an instant is just a zero-width span.
// For open-ended always-on windows the two predicates select identical
// rule sets at every query, so the draw streams match query for query.
func (in *Injector) DriftSpan(from, to float64) float64 {
	overlaps := func(r *Rule) bool { return r.overlaps(from, to) }
	if drifted, mag, _ := in.firing(AccuracyDrift, overlaps); drifted {
		in.counts.AccuracyDrifts++
		in.inject(to, AccuracyDrift, mag)
		return mag
	}
	return 0
}

// sustainedDelta evaluates one engaged sustained-drift rule's profile at
// time t: ramp toward full magnitude at Slope points/sec (step when
// Slope = 0), then hold, then — when Hold is set — self-recover.
func (r *Rule) sustainedDelta(t float64) float64 {
	mag := r.Mag
	if mag == 0 {
		mag = defaultMag(DriftSustained)
	}
	elapsed := t - r.Start
	if elapsed < 0 {
		return 0
	}
	ramp := 0.0
	if r.Slope > 0 {
		ramp = math.Abs(mag) / r.Slope
	}
	if r.Hold > 0 && elapsed >= ramp+r.Hold {
		return 0
	}
	if elapsed < ramp {
		return mag * (elapsed / ramp)
	}
	return mag
}

// sustainedAt sums the deltas of engaged DriftSustained rules selected by
// the activity predicate act, with profiles evaluated at eval (clamped
// into each rule's window). Engage draws happen here, one per rule, at
// the first query its window covers. A plan without such rules has no
// stream for them and returns at once.
func (in *Injector) sustainedAt(act func(*Rule) bool, eval float64) float64 {
	if in.streams[DriftSustained] == nil {
		return 0
	}
	var delta float64
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Kind != DriftSustained || !act(r) {
			continue
		}
		if !in.sustainedDecided[i] {
			in.sustainedDecided[i] = true
			in.sustainedEngaged[i] = in.streams[DriftSustained].Float64() < r.Prob
			if in.sustainedEngaged[i] {
				mag := r.Mag
				if mag == 0 {
					mag = defaultMag(DriftSustained)
				}
				in.inject(eval, DriftSustained, mag)
			}
		}
		if !in.sustainedEngaged[i] {
			continue
		}
		t := eval
		if r.End > 0 && t > r.End {
			t = r.End
		}
		if t < r.Start {
			t = r.Start
		}
		delta += r.sustainedDelta(t)
	}
	if delta != 0 {
		in.counts.SustainedDrifts++
	}
	return delta
}

// Sustained draws the sustained distribution shift at the instant now:
// the delta to add to the measured serving accuracy (0 when no engaged
// rule is active). Event-level edge runs call it per frame completion.
func (in *Injector) Sustained(now float64) float64 {
	return in.sustainedAt(func(r *Rule) bool { return r.active(now) }, now)
}

// SustainedSpan is Sustained for the fluid loop's accounting span
// [from, to): rule windows are matched by overlap (the DriftSpan boundary
// contract) and profiles are evaluated at the span end, clamped into each
// rule's window.
func (in *Injector) SustainedSpan(from, to float64) float64 {
	return in.sustainedAt(func(r *Rule) bool { return r.overlaps(from, to) }, to)
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts { return in.counts }
