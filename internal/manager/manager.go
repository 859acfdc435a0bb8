// Package manager implements AdaFlow's Runtime Manager (paper §IV-B2): the
// software module that selects, from the generated library, which pruned
// CNN model version to serve with and which accelerator family (Fixed- or
// Flexible-Pruning) to load, reacting to workload changes and the user's
// accuracy threshold.
//
// Model selection: among versions whose accuracy stays within the
// threshold of the unpruned baseline, pick the one with the highest
// throughput; when several versions can already match the incoming FPS,
// pick the most accurate of those.
//
// Accelerator selection is the paper's rule-based criteria: Fixed-Pruning
// (more power-efficient, but switching needs an FPGA reconfiguration) is
// chosen only when model switches have been arriving at intervals larger
// than a configurable multiple of the reconfiguration time; otherwise the
// Flexible accelerator serves, switching models with no reconfiguration.
package manager

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/library"
	"repro/internal/obs"
)

// AccelKind distinguishes the two accelerator families.
type AccelKind int

// Accelerator families.
const (
	Fixed AccelKind = iota
	Flexible
)

// String names the kind.
func (k AccelKind) String() string {
	if k == Flexible {
		return "Flexible"
	}
	return "Fixed"
}

// Decision is the manager's current serving configuration.
type Decision struct {
	Entry int // index into the library
	Kind  AccelKind
	// SwitchCost is the serving stall incurred to apply this decision
	// (reconfiguration for Fixed or accelerator-family changes, fast
	// switch on Flexible).
	SwitchCost time.Duration
	// Reconfigured reports whether applying it required an FPGA
	// reconfiguration.
	Reconfigured bool
}

// Policy selects which objective breaks ties among eligible versions.
type Policy int

// Policies. The paper's Runtime Manager states the goal as processing the
// most inferences "with less energy or higher throughput"; PolicyThroughput
// is the behaviour §IV-B2 spells out, PolicyEnergy is the energy-first
// variant.
const (
	// PolicyThroughput: most accurate version meeting the demand; fastest
	// eligible version when none meets it.
	PolicyThroughput Policy = iota
	// PolicyEnergy: lowest energy-per-inference version meeting the
	// demand; fastest eligible version when none meets it.
	PolicyEnergy
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyEnergy {
		return "energy"
	}
	return "throughput"
}

// Config parameterizes the manager.
type Config struct {
	// AccuracyThreshold is the maximum tolerated accuracy loss relative
	// to the unpruned baseline, in accuracy points on [0,1] scale (the
	// paper evaluates 0.10).
	AccuracyThreshold float64
	// CriteriaMultiple sets the Fixed-vs-Flexible rule: Fixed is selected
	// only when the observed model-switch interval exceeds
	// CriteriaMultiple × reconfiguration time (the paper tunes this to
	// 10×).
	CriteriaMultiple float64
	// Headroom derates advertised throughput when matching the incoming
	// rate (0 = none).
	Headroom float64
	// Policy breaks ties among versions that meet the demand.
	Policy Policy
	// SwitchPolicy selects the accelerator-family rule: the paper's
	// switch-interval criteria (SwitchInterval, the default) or the
	// sustained-data-rate rule (SwitchRate). Note this is a different
	// axis from Policy, which only breaks ties among eligible versions.
	SwitchPolicy SwitchPolicy
	// Rate tunes the sustained-rate tracker used by SwitchRate (zero
	// values select the tracker defaults; ignored under SwitchInterval).
	Rate RateConfig

	// Degradation policy: how the manager reacts when an FPGA
	// reconfiguration it requested fails at run time (reported through
	// ReconfigFailed). Zero values select the defaults, so configs built
	// before this policy existed keep working.

	// MaxReconfigRetries is the number of consecutive failed
	// reconfiguration attempts tolerated before the manager falls back to
	// the Flexible accelerator (0 = default 3).
	MaxReconfigRetries int
	// RetryBackoff is the delay before the first retry; it doubles on
	// every consecutive failure, capped at RetryBackoffMax
	// (0 = defaults 20 ms and 2 s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// FixedBanMultiple: after a fallback, Fixed-Pruning stays banned for
	// FixedBanMultiple × reconfiguration time (0 = default 20×), giving
	// the failing reconfiguration path time to recover.
	FixedBanMultiple float64
}

// DefaultConfig mirrors the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{AccuracyThreshold: 0.10, CriteriaMultiple: 10, Headroom: 0}
}

// normalize fills the degradation-policy defaults.
func (c *Config) normalize() {
	if c.MaxReconfigRetries == 0 {
		c.MaxReconfigRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 2 * time.Second
	}
	if c.FixedBanMultiple == 0 {
		c.FixedBanMultiple = 20
	}
}

// Manager tracks serving state across decisions.
type Manager struct {
	lib *library.Library
	cfg Config

	cur        Decision
	haveCur    bool
	lastSwitch float64 // sim time of the last model switch
	emaIval    float64 // smoothed observed switch interval (+Inf until measured)
	haveEMA    bool
	switches   int
	reconfigs  int
	log        []LogEntry

	// Degradation state: snap holds the pre-decision state while a
	// reconfiguration's outcome is unknown (valid when haveSnap), so a
	// failed attempt can roll back; consecFails counts failures since the
	// last success; fixedBanUntil bans Fixed-Pruning after a fallback.
	snap          snapshot
	haveSnap      bool
	consecFails   int
	reconfFails   int
	degradations  int
	fixedBanUntil float64

	// rate is the sustained-rate estimator behind SwitchRate. It tracks
	// the workload, not decisions, so it is deliberately outside the
	// reconfiguration snapshot: rolling back a failed decision must not
	// erase what the manager observed.
	rate RateTracker

	// trace, when enabled, receives one "manager/decide" event per Decide
	// call (candidate set, threshold, the active rule's verdict,
	// degradation state) plus rollback/commit events on the
	// reconfiguration path. Tracing is passive: it never alters a
	// decision.
	trace *obs.Trace
}

// snapshot is the rollback state for an uncommitted reconfiguration.
type snapshot struct {
	cur        Decision
	haveCur    bool
	lastSwitch float64
	emaIval    float64
	haveEMA    bool
	switches   int
	reconfigs  int
	logLen     int
}

// New builds a manager over a generated library.
func New(lib *library.Library, cfg Config) (*Manager, error) {
	if lib == nil || len(lib.Entries) == 0 {
		return nil, fmt.Errorf("manager: empty library")
	}
	if cfg.AccuracyThreshold < 0 {
		return nil, fmt.Errorf("manager: negative accuracy threshold")
	}
	if cfg.CriteriaMultiple <= 0 {
		return nil, fmt.Errorf("manager: criteria multiple must be positive")
	}
	if cfg.MaxReconfigRetries < 0 || cfg.RetryBackoff < 0 || cfg.RetryBackoffMax < 0 || cfg.FixedBanMultiple < 0 {
		return nil, fmt.Errorf("manager: negative degradation parameter")
	}
	if cfg.SwitchPolicy < 0 || cfg.SwitchPolicy >= numSwitchPolicies {
		return nil, fmt.Errorf("manager: unknown switch policy %d", int(cfg.SwitchPolicy))
	}
	if err := cfg.Rate.validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	return &Manager{
		lib: lib, cfg: cfg, emaIval: 1e18, lastSwitch: -1e18, fixedBanUntil: -1e18,
		rate: RateTracker{cfg: cfg.Rate},
	}, nil
}

// Library returns the manager's library.
func (m *Manager) Library() *library.Library { return m.lib }

// SwapLibrary atomically replaces the manager's candidate set with lib —
// the serving half of the closed adaptation loop (internal/adapt). The
// swap is refused (returns false) while a reconfiguration is in flight,
// i.e. between Decide and ReconfigSucceeded/ReconfigFailed: the rollback
// snapshot indexes into the old library, so swapping mid-decision could
// commit or roll back a decision against entries it was never made for.
// A nil candidate or one whose entry count differs is also refused —
// decisions, the rollback snapshot, and cached serving parameters all
// address entries by index, and those indices must stay valid across the
// swap. Callers retry a refused swap later (the edge loop re-offers the
// candidate each accounting sample; the pool each heartbeat).
func (m *Manager) SwapLibrary(now float64, lib *library.Library) bool {
	if lib == nil || len(lib.Entries) != len(m.lib.Entries) {
		return false
	}
	if m.haveSnap {
		return false
	}
	m.lib = lib
	if m.trace.Enabled() {
		m.trace.Emit(now, obs.ManagerCat, "swap-library",
			obs.I("version", lib.Version),
			obs.I("entries", len(lib.Entries)))
	}
	return true
}

// SetTracer attaches an observability trace (nil detaches). The edge
// simulation wires the run's tracer through here (edge.TracerAware).
func (m *Manager) SetTracer(tr *obs.Trace) { m.trace = tr }

// SetAccuracyThreshold changes the user threshold at run time; the paper's
// Runtime Manager "will act every time there is a change in either
// accuracy threshold (set by the user) or incoming FPS". The next Decide
// call re-selects under the new threshold.
func (m *Manager) SetAccuracyThreshold(threshold float64) error {
	if threshold < 0 {
		return fmt.Errorf("manager: negative accuracy threshold")
	}
	m.cfg.AccuracyThreshold = threshold
	return nil
}

// AccuracyThreshold returns the active threshold.
func (m *Manager) AccuracyThreshold() float64 { return m.cfg.AccuracyThreshold }

// LogEntry is one recorded decision.
type LogEntry struct {
	Time     float64
	Incoming float64
	Entry    int
	Kind     AccelKind
	Switched bool
	// Degraded marks decisions whose accelerator family was forced to
	// Flexible by the degradation policy (Fixed ban after repeated
	// reconfiguration failures).
	Degraded bool
}

// Log returns the decision history (every Decide call that changed the
// serving configuration, plus the initial load).
func (m *Manager) Log() []LogEntry { return m.log }

// Current returns the active decision (valid after the first Decide).
func (m *Manager) Current() (Decision, bool) { return m.cur, m.haveCur }

// Switches returns how many model switches the manager has performed.
func (m *Manager) Switches() int { return m.switches }

// Reconfigs returns how many FPGA reconfigurations those switches cost.
func (m *Manager) Reconfigs() int { return m.reconfigs }

// ReconfigFailures returns how many reconfiguration attempts were
// reported failed (faults rolled back; not counted in Reconfigs).
func (m *Manager) ReconfigFailures() int { return m.reconfFails }

// Degradations returns how many times repeated reconfiguration failures
// forced the manager to fall back to the Flexible accelerator.
func (m *Manager) Degradations() int { return m.degradations }

// ReconfigFailed tells the manager that the reconfiguration its last
// Decide requested did not take effect: the previous configuration keeps
// serving, so the decision is rolled back (state, counters and log). It
// returns the delay before the caller should retry — exponential backoff
// doubling per consecutive failure — and whether the retry budget is now
// exhausted, which bans Fixed-Pruning for FixedBanMultiple ×
// reconfiguration time so the next attempts degrade to the Flexible
// accelerator. Calling it with no outstanding reconfiguration is a no-op
// returning (0, false).
func (m *Manager) ReconfigFailed(now float64) (retry time.Duration, degraded bool) {
	if !m.haveSnap {
		return 0, false
	}
	s := m.snap
	m.cur, m.haveCur = s.cur, s.haveCur
	m.lastSwitch, m.emaIval, m.haveEMA = s.lastSwitch, s.emaIval, s.haveEMA
	m.switches, m.reconfigs = s.switches, s.reconfigs
	m.log = m.log[:s.logLen]
	m.haveSnap = false

	m.consecFails++
	m.reconfFails++
	retry = m.cfg.RetryBackoff << (m.consecFails - 1)
	if retry > m.cfg.RetryBackoffMax || retry <= 0 { // <=0 guards shift overflow
		retry = m.cfg.RetryBackoffMax
	}
	if m.consecFails >= m.cfg.MaxReconfigRetries {
		m.fixedBanUntil = now + m.cfg.FixedBanMultiple*m.lib.ReconfigTime.Seconds()
		m.degradations++
		m.consecFails = 0
		// Retry promptly: the fallback decision itself (loading the
		// Flexible accelerator) is what the retry will apply.
		retry = m.cfg.RetryBackoff
		degraded = true
	}
	if m.trace.Enabled() {
		m.trace.Emit(now, obs.ManagerCat, "rollback",
			obs.I("consec_fails", m.consecFails),
			obs.I("total_fails", m.reconfFails),
			obs.F("retry_s", retry.Seconds()),
			obs.B("degraded", degraded),
			obs.F("ban_until", m.fixedBanUntil))
	}
	return retry, degraded
}

// ReconfigSucceeded confirms the last requested reconfiguration took
// effect, committing the decision and resetting the failure streak.
func (m *Manager) ReconfigSucceeded(now float64) {
	if m.trace.Enabled() {
		m.trace.Emit(now, obs.ManagerCat, "commit",
			obs.I("entry", m.cur.Entry),
			obs.S("kind", m.cur.Kind.String()),
			obs.B("recovered", m.consecFails > 0))
	}
	m.haveSnap = false
	m.consecFails = 0
}

// eligible reports whether entry i satisfies the accuracy threshold.
func (m *Manager) eligible(i int) bool {
	return m.lib.Entries[i].Accuracy >= m.lib.BaselineAccuracy()-m.cfg.AccuracyThreshold
}

// fps returns the throughput entry i would deliver on the given family.
func (m *Manager) fps(i int, kind AccelKind) float64 {
	e := &m.lib.Entries[i]
	if kind == Flexible {
		return e.FlexFPS
	}
	return e.FixedFPS
}

// SelectModel picks the library entry for an incoming frame rate,
// independent of accelerator family (throughput ordering is the same on
// both). It returns the entry index.
func (m *Manager) SelectModel(incomingFPS float64) int {
	best := 0
	bestFPS := -1.0
	// Highest-throughput eligible version.
	for i := range m.lib.Entries {
		if !m.eligible(i) {
			continue
		}
		if f := m.lib.Entries[i].FixedFPS; f > bestFPS {
			bestFPS = f
			best = i
		}
	}
	// Among eligible versions that already meet the demand, prefer the
	// most accurate (the paper's tie rule) or — under PolicyEnergy — the
	// one with the lowest energy per inference.
	need := incomingFPS * (1 + m.cfg.Headroom)
	bestScore := 0.0
	found := -1
	for i := range m.lib.Entries {
		if !m.eligible(i) {
			continue
		}
		e := &m.lib.Entries[i]
		if e.FixedFPS < need {
			continue
		}
		var score float64
		if m.cfg.Policy == PolicyEnergy {
			score = -e.FixedPower.TotalEnergyPerInference()
		} else {
			score = e.Accuracy
		}
		if found < 0 || score > bestScore {
			bestScore = score
			found = i
		}
	}
	if found >= 0 {
		return found
	}
	return best
}

// eligibleSet renders the indices of the threshold-eligible entries
// ("0,1,2,…") for the decision trace. Only called when tracing is enabled,
// so untraced decisions never pay the allocation.
func (m *Manager) eligibleSet() string {
	var b strings.Builder
	for i := range m.lib.Entries {
		if !m.eligible(i) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
	}
	return b.String()
}

// traceDecide emits the "manager/decide" event: the full context of one
// decision — chosen entry and family, the candidate set under the active
// threshold, the active rule's verdict, and the degradation state. Under
// SwitchInterval the attribute set is exactly the historical one (the
// golden decision traces pin it); SwitchRate appends its policy verdict:
// the sustained-rate estimate the model was selected against, the
// deviation estimate, and the stability verdict.
func (m *Manager) traceDecide(now, incomingFPS float64, entry int, kind, ruleKind AccelKind, interval, cutoff float64, changed, switched, degraded bool) {
	attrs := []obs.Attr{
		obs.F("incoming", incomingFPS),
		obs.I("entry", entry),
		obs.S("kind", kind.String()),
		obs.B("changed", changed),
		obs.B("switched", switched),
		obs.S("eligible", m.eligibleSet()),
		obs.F("threshold", m.cfg.AccuracyThreshold),
		obs.F("interval_s", interval),
		obs.F("criteria_s", cutoff),
		obs.S("verdict", ruleKind.String()),
		obs.B("degraded", degraded),
		obs.F("ban_until", m.fixedBanUntil),
	}
	if m.cfg.SwitchPolicy == SwitchRate {
		attrs = append(attrs,
			obs.S("policy", m.cfg.SwitchPolicy.String()),
			obs.F("sustained", m.rate.Sustained()),
			obs.F("rate_dev", m.rate.Deviation()),
			obs.B("stable", m.rate.Stable()))
	}
	m.trace.Emit(now, obs.ManagerCat, "decide", attrs...)
}

// Decide reacts to a workload observation at simulation time now
// (seconds), returning the new decision and whether it changed the serving
// configuration. The returned Decision carries the switching cost to apply.
func (m *Manager) Decide(now float64, incomingFPS float64) (Decision, bool) {
	rateRule := m.cfg.SwitchPolicy == SwitchRate
	selectFPS := incomingFPS
	if rateRule {
		// Data-rate-aware selection: feed the tracker and size the model
		// to the sustained rate (EWMA + margin), not the instantaneous
		// observation — transient dips stop causing switches, and the
		// margin pre-provisions for the tracked fluctuation.
		m.rate.Observe(now, incomingFPS)
		selectFPS = m.rate.Sustained()
	}
	entry := m.SelectModel(selectFPS)

	modelSwitch := !m.haveCur || entry != m.cur.Entry
	// Accelerator-family rule: use Fixed only when switches have been
	// arriving at intervals beyond the criteria. A smoothed interval (EMA)
	// keeps one quiet stretch in an unpredictable phase from flapping back
	// to Fixed and paying reconfigurations.
	interval := m.emaIval
	if modelSwitch && m.haveCur {
		obs := now - m.lastSwitch
		if obs < interval {
			interval = obs
		}
	}
	cutoff := m.cfg.CriteriaMultiple * m.lib.ReconfigTime.Seconds()
	kind := Flexible
	if interval >= cutoff {
		kind = Fixed
	}
	if rateRule {
		// The data-rate rule replaces the interval criteria for the
		// family choice: Fixed only while the tracked rate is stable
		// enough that model switches will be rare.
		kind = Flexible
		if m.rate.Stable() {
			kind = Fixed
		}
	}
	ruleKind := kind // the active rule's verdict, before any ban
	// Degradation fallback: while Fixed-Pruning is banned (repeated
	// reconfiguration failures), serve from the Flexible accelerator even
	// when the switch-interval rule would pick Fixed.
	degraded := false
	if kind == Fixed && now < m.fixedBanUntil {
		kind = Flexible
		degraded = true
	}
	traced := m.trace.Enabled()

	if !modelSwitch && m.haveCur && kind == m.cur.Kind {
		if traced {
			m.traceDecide(now, incomingFPS, entry, kind, ruleKind, interval, cutoff, false, false, degraded)
		}
		return m.cur, false
	}
	// A family change without a model change still requires loading the
	// other accelerator (a reconfiguration); only perform it alongside a
	// model switch to avoid gratuitous reloads.
	if !modelSwitch && m.haveCur && kind != m.cur.Kind {
		if traced {
			m.traceDecide(now, incomingFPS, entry, m.cur.Kind, ruleKind, interval, cutoff, false, false, degraded)
		}
		return m.cur, false
	}

	d := Decision{Entry: entry, Kind: kind}
	switch {
	case !m.haveCur:
		// Initial load is a reconfiguration.
		d.SwitchCost = m.lib.ReconfigTime
		d.Reconfigured = true
	case kind == Flexible && m.cur.Kind == Flexible:
		// Fast model switch on the already-loaded flexible accelerator.
		d.SwitchCost = m.lib.FlexSwitchTime
	default:
		// Loading a (different) fixed bitstream, or moving between
		// families: full FPGA reconfiguration.
		d.SwitchCost = m.lib.ReconfigTime
		d.Reconfigured = true
	}
	// Reconfigurations can fail at run time: keep the pre-decision state
	// until the outcome is reported (ReconfigFailed rolls back,
	// ReconfigSucceeded or the next commit discards). Fast flexible
	// switches cannot fail, so they need no snapshot.
	m.snap = snapshot{
		cur: m.cur, haveCur: m.haveCur,
		lastSwitch: m.lastSwitch, emaIval: m.emaIval, haveEMA: m.haveEMA,
		switches: m.switches, reconfigs: m.reconfigs, logLen: len(m.log),
	}
	m.haveSnap = d.Reconfigured
	if modelSwitch {
		if m.haveCur {
			obs := now - m.lastSwitch
			if !m.haveEMA {
				m.emaIval = obs
				m.haveEMA = true
			} else {
				m.emaIval = 0.5*m.emaIval + 0.5*obs
			}
		}
		m.lastSwitch = now
		m.switches++
	}
	if d.Reconfigured {
		m.reconfigs++
	}
	m.cur = d
	m.haveCur = true
	m.log = append(m.log, LogEntry{
		Time: now, Incoming: incomingFPS,
		Entry: d.Entry, Kind: d.Kind, Switched: modelSwitch, Degraded: degraded,
	})
	if traced {
		m.traceDecide(now, incomingFPS, entry, kind, ruleKind, interval, cutoff, true, modelSwitch, degraded)
	}
	return d, true
}
