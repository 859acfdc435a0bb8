// Package multiedge extends the single-FPGA edge server of internal/edge
// to a supervised pool of FPGAs behind one frame dispatcher — the
// direction the AdaFlow authors pursue in their multi-FPGA follow-up work
// (cited as [3] in the paper). Each board runs its own AdaFlow Runtime
// Manager over the shared library; the dispatcher splits the incoming
// stream across boards in proportion to their current capacity, and each
// manager adapts its board independently.
//
// On top of the dispatcher sits a supervisor: every board has a health
// state machine (healthy → suspect → dead → recovering) advanced by
// deterministic seeded heartbeats (edge.BoardSupervisor). Board-level
// faults drawn from the run's injector — crash, hang, transient frame
// corruption, slow-board brownout — drive detection, capacity-aware
// redistribution of the stream across survivors, optional hot-standby
// promotion, and a quorum degraded mode that relaxes the accuracy
// threshold on the survivors (via the managers' existing threshold lever)
// rather than dropping the stream. Every supervision decision is traced
// under obs.PoolCat and counted in metrics.PoolStats; a run replays
// bit-identically from its (plan, seed) pair.
//
// The pool presents itself to edge.Run as a single edge.Controller whose
// capacity, accuracy (weighted by currently-effective capacity) and power
// are pool aggregates. A board that reconfigures removes its share of the
// pool's capacity for the reconfiguration time; the pool reports that as
// an equivalent whole-pool stall scaled by the board's capacity weight,
// so reconfigurations are increasingly masked as the pool grows — the
// effect that makes Fixed-Pruning more attractive on larger
// installations.
package multiedge

import (
	"fmt"
	"time"

	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/synth"
)

// BoardState is one station of a board's health state machine.
type BoardState int

// Health states. Healthy boards serve their share. Suspect boards have
// missed heartbeats but are not yet declared dead; they keep their slot
// (their capacity is already discounted while unresponsive). Dead boards
// are out of the serving set until their repair completes. Recovering
// boards have finished repair and re-initialize for one heartbeat before
// rejoining as promotion candidates.
const (
	Healthy BoardState = iota
	Suspect
	Dead
	Recovering
	numStates
)

var stateNames = [numStates]string{
	Healthy:    "healthy",
	Suspect:    "suspect",
	Dead:       "dead",
	Recovering: "recovering",
}

// String names the state (the spelling used in trace events).
func (s BoardState) String() string {
	if s < 0 || s >= numStates {
		return fmt.Sprintf("multiedge.BoardState(%d)", int(s))
	}
	return stateNames[s]
}

// Config tunes a supervised pool.
type Config struct {
	// Boards is the serving-set size (required, >= 1).
	Boards int
	// Standby adds hot spare boards that idle outside the serving set and
	// are promoted when a serving board dies.
	Standby int
	// Batch, when > 1, models per-board micro-batched dispatch (see
	// edge.SimConfig.BatchConfig): each serving board admits its assigned share
	// of the stream into an analytic batch queue advanced on every
	// heartbeat, and the pool reports the aggregate occupancy through
	// DrainBatchStats. Batch <= 1 computes and emits nothing.
	Batch int
	// Manager configures each board's Runtime Manager.
	Manager manager.Config
}

// Supervision constants. Boards are supervised every
// edge.HeartbeatInterval seconds.
const (
	// suspectAfter is the number of consecutive missed heartbeats before
	// a board is marked suspect; after twice that many it is declared
	// dead.
	suspectAfter = 2
	// degradedRelax is subtracted from the accuracy threshold while
	// degraded, letting survivors pick faster, less accurate
	// configurations instead of shedding the stream.
	degradedRelax = 0.05
)

// Validate reports a knob the pool cannot honour.
func (c *Config) Validate() error {
	switch {
	case c.Boards <= 0:
		return fmt.Errorf("multiedge: pool needs at least one board, got %d", c.Boards)
	case c.Standby < 0:
		return fmt.Errorf("multiedge: negative standby count %d", c.Standby)
	}
	return nil
}

// quorum is the minimum count of responsive serving boards below which
// the pool enters degraded mode: a majority of Boards.
func (p *Pool) quorum() int { return (p.cfg.Boards + 1) / 2 }

// board is one FPGA of the pool.
type board struct {
	mgr      *manager.Manager
	fps      float64
	accuracy float64
	power    synth.PowerCurve

	// Supervision state.
	state   BoardState
	serving bool // in the serving set (false: hot standby or waiting)
	missed  int  // consecutive missed heartbeats
	// Timers, in simulation seconds.
	hangUntil      float64 // unresponsive until
	repairUntil    float64 // dead until
	brownoutUntil  float64
	brownoutFactor float64
	corruptUntil   float64
	corruptFrac    float64
	stallUntil     float64 // mid-reconfiguration until

	// Micro-batched dispatch (Config.Batch > 1): the board's last
	// assigned share of the incoming stream and its analytic batch-queue
	// occupancy in frames.
	share      float64
	batchCarry float64
}

// effFPS is the board's currently-effective capacity: zero while it is
// out of the serving set, unresponsive, or mid-reconfiguration; derated
// while browned out.
func (b *board) effFPS(now float64) float64 {
	if !b.serving || b.state == Dead || b.state == Recovering {
		return 0
	}
	if now < b.hangUntil || now < b.stallUntil {
		return 0
	}
	f := b.fps
	if now < b.brownoutUntil {
		f *= b.brownoutFactor
	}
	return f
}

// effAccuracy is the board's currently-delivered accuracy, discounted
// while transient frame corruption is active.
func (b *board) effAccuracy(now float64) float64 {
	a := b.accuracy
	if now < b.corruptUntil {
		a *= 1 - b.corruptFrac
	}
	return a
}

// able reports whether the board can take frames right now.
func (b *board) able(now float64) bool {
	if !b.serving || (b.state != Healthy && b.state != Suspect) {
		return false
	}
	return now >= b.hangUntil
}

// Pool is an edge.Controller dispatching over a supervised set of boards.
type Pool struct {
	lib    *library.Library
	cfg    Config
	boards []*board
	trace  *obs.Trace
	stats  metrics.PoolStats
	batch  metrics.BatchStats
	// baseThreshold is the user accuracy threshold; degraded mode serves
	// at baseThreshold - degradedRelax.
	baseThreshold float64
	degraded      bool
	// pendingLib is a hot-swap in flight: boards adopt it one by one on
	// heartbeats (never mid-reconfiguration), each serving from its own
	// manager's committed library until its individual swap lands.
	pendingLib *library.Library

	// React's scratch: the able boards and their dispatch weights.
	able    []*board
	weights []float64
	// labels[k] is the Serving label with k of the boards able.
	labels []string
}

// NewSupervisedPool builds a pool of cfg.Boards serving boards plus
// cfg.Standby hot spares over a shared library, each board with its own
// Runtime Manager configured with cfg.Manager.
func NewSupervisedPool(lib *library.Library, cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{lib: lib, cfg: cfg}
	for i := 0; i < cfg.Boards+cfg.Standby; i++ {
		mgr, err := manager.New(lib, cfg.Manager)
		if err != nil {
			return nil, err
		}
		p.boards = append(p.boards, &board{mgr: mgr, serving: i < cfg.Boards})
	}
	for k := 0; k <= len(p.boards); k++ {
		p.labels = append(p.labels, fmt.Sprintf("pool[%d/%d]", k, len(p.boards)))
	}
	p.baseThreshold = p.boards[0].mgr.AccuracyThreshold()
	return p, nil
}

// Degraded reports whether the pool is currently below quorum and
// serving with a relaxed accuracy threshold.
func (p *Pool) Degraded() bool { return p.degraded }

// EffectiveCapacity reports the pool's health-weighted serving capacity in
// FPS at time now: the sum of every serving board's currently-effective
// rate — zero while dead, recovering, hung, or mid-reconfiguration,
// derated while browned out. A board that has not decided yet (no cached
// rate) weighs in at fallback, the caller's nominal per-board estimate.
// The cluster placer scores pools with this, so placement reuses the same
// capacity model the dispatcher already serves by.
func (p *Pool) EffectiveCapacity(now, fallback float64) float64 {
	total := 0.0
	for _, b := range p.boards {
		if !b.serving || (b.state != Healthy && b.state != Suspect) {
			continue
		}
		if now < b.hangUntil || now < b.stallUntil {
			continue
		}
		f := b.fps
		if f <= 0 {
			f = fallback
		}
		if now < b.brownoutUntil {
			f *= b.brownoutFactor
		}
		total += f
	}
	return total
}

// Responsive counts serving boards that are currently answering
// heartbeats (healthy or suspect, not hung).
func (p *Pool) Responsive(now float64) int {
	n := 0
	for _, b := range p.boards {
		if b.serving && (b.state == Healthy || b.state == Suspect) && now >= b.hangUntil {
			n++
		}
	}
	return n
}

// ServingLibrary implements edge.LibrarySwapper: the library the whole
// pool has fully committed to. A swap in flight does not change it until
// every board adopted the candidate.
func (p *Pool) ServingLibrary() *library.Library { return p.lib }

// SwapLibrary implements edge.LibrarySwapper: stage lib as the pending
// library and try to roll it across the boards immediately. The swap is
// staggered — each board adopts the candidate on a heartbeat where it is
// not mid-reconfiguration and not paying a switch stall; until then it
// keeps serving its own committed version. Returns true only once every
// board (spares included) has committed, so the adaptation loop's
// single-version invariant holds pool-wide.
func (p *Pool) SwapLibrary(now float64, lib *library.Library) bool {
	if lib == nil || len(lib.Entries) != len(p.lib.Entries) {
		return false
	}
	p.pendingLib = lib
	_, done := p.applySwap(now)
	return done
}

// applySwap advances a staggered library swap by one round: every board
// not yet on the pending library attempts to adopt it, in index order so
// the trace replays deterministically. A board defers while stalled on a
// switch or while its manager has a reconfiguration in flight (the
// manager refuses mid-decide/commit). applied reports whether any board
// adopted this round; done reports whether the swap has fully committed.
func (p *Pool) applySwap(now float64) (applied, done bool) {
	if p.pendingLib == nil {
		return false, false
	}
	done = true
	for i, b := range p.boards {
		if b.mgr.Library() == p.pendingLib {
			continue
		}
		if now < b.stallUntil || !b.mgr.SwapLibrary(now, p.pendingLib) {
			done = false
			continue
		}
		applied = true
		if p.trace.Enabled() {
			p.trace.Emit(now, obs.PoolCat, "swap",
				obs.I("board", i), obs.I("version", p.pendingLib.Version))
		}
	}
	if done {
		p.lib = p.pendingLib
		p.pendingLib = nil
	}
	return applied, done
}

// Rebase shifts every board timer dt seconds earlier, clamped at zero.
// The cluster scheduler serves a pool through a sequence of epoch-local
// edge.Run windows; calling Rebase(epochSeconds) between windows keeps a
// board's remaining repair/hang/brownout/corruption/stall time continuous
// across the boundary, so a board crashed with 8 s of repair left in one
// epoch comes back 8 s into the next.
func (p *Pool) Rebase(dt float64) {
	clamp := func(t float64) float64 {
		if t <= dt {
			return 0
		}
		return t - dt
	}
	for _, b := range p.boards {
		b.hangUntil = clamp(b.hangUntil)
		b.repairUntil = clamp(b.repairUntil)
		b.brownoutUntil = clamp(b.brownoutUntil)
		b.corruptUntil = clamp(b.corruptUntil)
		b.stallUntil = clamp(b.stallUntil)
	}
}

// PoolStats implements edge.PoolStatsReporter.
func (p *Pool) PoolStats() metrics.PoolStats { return p.stats }

// SetTracer implements edge.TracerAware: supervision events are emitted
// by the pool itself; each board's manager gets a child trace tagged with
// its board index so decision streams stay distinguishable.
func (p *Pool) SetTracer(tr *obs.Trace) {
	p.trace = tr
	for i, b := range p.boards {
		b.mgr.SetTracer(tr.With(obs.I("board", i)))
	}
}

// SetAccuracyThreshold implements edge.ThresholdSetter: the new user
// threshold becomes the base; degraded mode keeps its relax on top.
func (p *Pool) SetAccuracyThreshold(threshold float64) error {
	if err := manager.CheckThreshold(threshold); err != nil {
		return err
	}
	p.baseThreshold = threshold
	return p.applyThreshold()
}

// threshold returns the accuracy threshold the boards serve under: the
// base, relaxed by degradedRelax (floored at 0) in degraded mode.
func (p *Pool) threshold() float64 {
	if !p.degraded {
		return p.baseThreshold
	}
	thr := p.baseThreshold - degradedRelax
	if thr < 0 {
		return 0
	}
	return thr
}

func (p *Pool) applyThreshold() error {
	thr := p.threshold()
	for _, b := range p.boards {
		if err := b.mgr.SetAccuracyThreshold(thr); err != nil {
			return err
		}
	}
	return nil
}

// Reconfigs sums FPGA reconfigurations across boards.
func (p *Pool) Reconfigs() int {
	total := 0
	for _, b := range p.boards {
		total += b.mgr.Reconfigs()
	}
	return total
}

// Switches sums model switches across boards.
func (p *Pool) Switches() int {
	total := 0
	for _, b := range p.boards {
		total += b.mgr.Switches()
	}
	return total
}

// Heartbeat implements edge.BoardSupervisor: one supervision tick. Fault
// outcomes are drawn for every board in index order on every beat — dead
// boards included — so the draw sequence, and with it the whole run,
// replays bit-identically from (plan, seed). It returns true when the
// serving topology or delivered quality changed and the run must React.
func (p *Pool) Heartbeat(now float64, inj *fault.Injector) bool {
	changed := false
	for i, b := range p.boards {
		var out fault.BoardOutcome
		if inj != nil {
			out = inj.Board(now, i)
		}
		if p.applyOutcome(now, i, b, &out) {
			changed = true
		}
	}
	for i, b := range p.boards {
		if p.tick(now, i, b) {
			changed = true
		}
	}
	if p.promote(now) {
		changed = true
	}
	if p.updateDegraded(now) {
		changed = true
	}
	if p.pendingLib != nil {
		// A staggered hot-swap is in flight: boards that deferred (stalled,
		// or mid-reconfiguration) retry each beat. Any adoption changes the
		// capability surface, so the run must React and re-decide.
		if applied, _ := p.applySwap(now); applied {
			changed = true
		}
	}
	if p.cfg.Batch > 1 {
		p.advanceBatches(now)
	}
	return changed
}

// advanceBatches advances the analytic per-board batch queues by one
// heartbeat: each serving board admits its assigned stream share into a
// carry (capped by its effective capacity) and dispatches full batches;
// when the share undershoots capacity the dispatcher drains what it holds
// rather than holding frames back, so lightly-loaded boards keep
// single-frame latency. Deadline-slack cuts are a serving-path concern
// (edge.SimConfig.BatchConfig); the pool models occupancy. Never called at
// Batch <= 1, so historical runs replay byte-identically.
func (p *Pool) advanceBatches(now float64) {
	full := float64(p.cfg.Batch)
	dt := edge.HeartbeatInterval
	for i, b := range p.boards {
		eff := b.effFPS(now)
		if eff <= 0 || b.share <= 0 {
			continue
		}
		rate := b.share
		if rate > eff {
			rate = eff
		}
		b.batchCarry += rate * dt
		var flushed float64
		for b.batchCarry >= full {
			b.batchCarry -= full
			p.batch.Add(full, metrics.FlushBatchFull)
			flushed++
		}
		if b.batchCarry > 0 && b.share < eff {
			p.batch.Add(b.batchCarry, metrics.FlushIdle)
			b.batchCarry = 0
			flushed++
		}
		if flushed > 0 && p.trace.Enabled() {
			p.trace.Hot(now, obs.PoolCat, "batch",
				obs.I("board", i),
				obs.F("flushes", flushed),
				obs.F("carry", b.batchCarry))
		}
	}
}

// DrainBatchStats implements edge.BatchStatsReporter: it returns the
// per-board dispatch batches accumulated since the previous drain and
// resets the counters, so a persistent pool served through epoch-windowed
// runs (the cluster scheduler) contributes every batch exactly once.
func (p *Pool) DrainBatchStats() metrics.BatchStats {
	s := p.batch
	p.batch = metrics.BatchStats{}
	return s
}

// applyOutcome feeds one board's drawn faults into its state machine.
func (p *Pool) applyOutcome(now float64, i int, b *board, out *fault.BoardOutcome) bool {
	changed := false
	if out.Crash && b.state != Dead {
		p.declareDead(now, i, b, now+out.CrashRepair, "crash")
		changed = true
	}
	if out.Hang && b.state != Dead && b.state != Recovering {
		if until := now + out.HangFor; until > b.hangUntil {
			b.hangUntil = until
		}
		changed = true // capacity drops immediately; detection lags
	}
	if out.Corrupt {
		b.corruptFrac = out.CorruptFrac
		b.corruptUntil = now + out.CorruptFor
		changed = true
	}
	if out.Brownout {
		b.brownoutFactor = out.BrownoutFactor
		b.brownoutUntil = now + out.BrownoutFor
		changed = true
	}
	return changed
}

// tick advances one board's timer-driven transitions.
func (p *Pool) tick(now float64, i int, b *board) bool {
	switch b.state {
	case Dead:
		if now >= b.repairUntil {
			p.setState(now, i, b, Recovering)
		}
	case Recovering:
		// One beat of re-initialization done: the board is healthy again
		// and becomes a promotion candidate (a spare until a slot opens).
		p.setState(now, i, b, Healthy)
		b.missed = 0
		b.hangUntil, b.brownoutUntil, b.corruptUntil, b.stallUntil = 0, 0, 0, 0
		p.stats.BoardsRecovered++
		if p.trace.Enabled() {
			p.trace.Emit(now, obs.PoolCat, "recovered", obs.I("board", i))
		}
	case Healthy, Suspect:
		if now < b.hangUntil {
			b.missed++
			if b.state == Healthy && b.missed >= suspectAfter {
				p.setState(now, i, b, Suspect)
			}
			if b.missed >= 2*suspectAfter {
				until := b.hangUntil
				if until < now {
					until = now
				}
				p.declareDead(now, i, b, until, "hang")
				return true
			}
		} else if b.missed > 0 {
			b.missed = 0
			if b.state == Suspect {
				p.setState(now, i, b, Healthy)
			}
			return true // responsiveness restored: capacity is back
		}
	}
	return false
}

// declareDead takes a board out of the serving set until repairUntil.
func (p *Pool) declareDead(now float64, i int, b *board, repairUntil float64, why string) {
	p.setState(now, i, b, Dead)
	b.repairUntil = repairUntil
	wasServing := b.serving
	b.serving = false
	b.missed = 0
	p.stats.BoardsDied++
	if wasServing {
		p.stats.Failovers++
		if p.trace.Enabled() {
			p.trace.Emit(now, obs.PoolCat, "failover",
				obs.I("board", i), obs.S("cause", why), obs.F("repair_until", repairUntil))
		}
	}
}

// promote fills empty serving slots from healthy non-serving boards (hot
// standbys, and repaired boards that lost their slot while dead).
func (p *Pool) promote(now float64) bool {
	servingN := 0
	for _, b := range p.boards {
		if b.serving {
			servingN++
		}
	}
	changed := false
	for i, b := range p.boards {
		if servingN >= p.cfg.Boards {
			break
		}
		if b.serving || b.state != Healthy {
			continue
		}
		b.serving = true
		servingN++
		p.stats.StandbyPromotions++
		changed = true
		if p.trace.Enabled() {
			p.trace.Emit(now, obs.PoolCat, "promote", obs.I("board", i))
		}
	}
	return changed
}

// updateDegraded enters or leaves quorum-degraded mode. Below quorum the
// survivors serve under a relaxed accuracy threshold — the stream keeps
// flowing at lower quality rather than being shed.
func (p *Pool) updateDegraded(now float64) bool {
	responsive := p.Responsive(now)
	want := responsive < p.quorum()
	if want == p.degraded {
		return false
	}
	p.degraded = want
	if want {
		p.stats.DegradedEntries++
	}
	// The threshold move cannot fail: base and relax are validated.
	_ = p.applyThreshold()
	if p.trace.Enabled() {
		p.trace.Emit(now, obs.PoolCat, "degraded",
			obs.B("on", want), obs.I("responsive", responsive),
			obs.I("quorum", p.quorum()), obs.F("threshold", p.threshold()))
	}
	return true
}

// setState moves a board's state machine, tracing the transition.
func (p *Pool) setState(now float64, i int, b *board, st BoardState) {
	if b.state == st {
		return
	}
	if p.trace.Enabled() {
		p.trace.Emit(now, obs.PoolCat, "board-state",
			obs.I("board", i), obs.S("from", b.state.String()), obs.S("to", st.String()))
	}
	b.state = st
}

// React implements edge.Controller: every able board decides against its
// capacity-proportional share of the incoming stream; the pool aggregates
// capacity, accuracy (weighted by currently-effective capacity, so a
// board mid-reconfiguration or corrupting frames is reflected, not
// idealized) and power, and reports board switch costs as an equivalent
// whole-pool stall scaled by each switching board's capacity weight.
func (p *Pool) React(now, incomingFPS float64) (edge.Serving, time.Duration, bool, bool) {
	able := p.able[:0]
	for _, b := range p.boards {
		if b.able(now) {
			able = append(able, b)
		}
	}
	p.able = able
	if len(able) == 0 {
		// Total blackout: no healthy board. Serve nothing; the edge layer
		// sheds arrivals with cause no-healthy-board until a board
		// recovers.
		if p.trace.Enabled() {
			p.trace.Emit(now, obs.PoolCat, "blackout", obs.I("boards", len(p.boards)))
		}
		return edge.Serving{Label: p.labels[0]}, 0, false, false
	}

	// Capacity-proportional dispatch weights. Boards with no cached
	// capability yet (first reaction, or a board fresh out of repair)
	// weigh in at the mean of the known ones so they receive a share to
	// decide against.
	if cap(p.weights) < len(able) {
		p.weights = make([]float64, len(able))
	}
	weights := p.weights[:len(able)]
	var wsum float64
	known := 0
	for _, b := range able {
		if b.fps > 0 {
			wsum += b.fps
			known++
		}
	}
	fill := 1.0
	if known > 0 {
		fill = wsum / float64(known)
	}
	total := 0.0
	for i, b := range able {
		w := b.fps
		if w <= 0 {
			w = fill
		}
		weights[i] = w
		total += w
	}
	for i := range weights {
		weights[i] /= total
	}

	switched, reconf := false, false
	var stall time.Duration
	for i, b := range able {
		b.share = incomingFPS * weights[i]
		d, changed := b.mgr.Decide(now, b.share)
		p.apply(b, d)
		if changed {
			switched = true
			if d.Reconfigured {
				reconf = true
			}
			stall += time.Duration(float64(d.SwitchCost) * weights[i])
			if d.SwitchCost > 0 {
				b.stallUntil = now + d.SwitchCost.Seconds()
			}
		}
	}

	// Aggregate. Nominal capacity includes boards paying a
	// reconfiguration stall (the stall itself is reported separately);
	// accuracy weights by what is effectively serving right now.
	var capacity, accEff, effSum, accNom, idleTotal float64
	for _, b := range able {
		f := b.fps
		if now < b.brownoutUntil {
			f *= b.brownoutFactor
		}
		capacity += f
		idleTotal += b.power.IdleW
		a := b.effAccuracy(now)
		accNom += a * f
		eff := b.effFPS(now)
		accEff += a * eff
		effSum += eff
	}
	accuracy := 0.0
	switch {
	case effSum > 0:
		accuracy = accEff / effSum
	case capacity > 0:
		// Every able board is mid-reconfiguration: fall back to nominal
		// capacity weighting (nothing serves during the stall anyway).
		accuracy = accNom / capacity
	}

	// The Serving owns a copy of the curves, so it keeps charging these
	// configurations' power after a later React re-points a board.
	curves := make([]synth.PowerCurve, len(able))
	for i, b := range able {
		curves[i] = b.power
	}
	s := edge.Serving{
		FPS:       capacity,
		Accuracy:  accuracy,
		Boards:    curves,
		IdlePower: idleTotal,
		Label:     p.labels[len(able)],
	}
	return s, stall, switched, reconf
}

// apply caches a board's serving parameters for a decision. Entries are
// read from the board's own manager's library — during a staggered
// hot-swap, boards that have not adopted the pending library yet keep
// serving exactly their committed version, never a half-swapped blend.
func (p *Pool) apply(b *board, d manager.Decision) {
	s := edge.DecisionServing(b.mgr.Library(), d)
	b.fps, b.accuracy, b.power = s.FPS, s.Accuracy, s.Power
}

// ReconfigFailed implements edge.ReconfigAware for the pool. The fault
// model is pool-coarse: one failed reconfiguration event fails every
// board whose last React decision attempted an FPGA reconfiguration
// (boards without an outstanding reconfiguration no-op). Each failed
// board's manager rolls back and its serving cache is restored to the
// pre-decision configuration. The returned backoff is the longest over
// the failed boards; degraded reports whether any board exhausted its
// retry budget this round.
func (p *Pool) ReconfigFailed(now float64) (time.Duration, bool) {
	var retry time.Duration
	degraded := false
	for _, b := range p.boards {
		r, d := b.mgr.ReconfigFailed(now)
		if r > retry {
			retry = r
		}
		if d {
			degraded = true
		}
		if r > 0 || d {
			// Rolled back: restore the cached serving parameters.
			if cur, ok := b.mgr.Current(); ok {
				p.apply(b, cur)
			}
		}
	}
	return retry, degraded
}

// ReconfigSucceeded implements edge.ReconfigAware: every board with an
// outstanding reconfiguration commits it.
func (p *Pool) ReconfigSucceeded(now float64) {
	for _, b := range p.boards {
		b.mgr.ReconfigSucceeded(now)
	}
}
