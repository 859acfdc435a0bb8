// Package cluster shards simulated camera streams across a fleet of
// supervised multi-board pools (internal/multiedge). It separates
// placement from dispatch: a serial placer scores pools by
// health-weighted effective capacity and assigns streams worst-fit under
// per-tenant priority admission control, then a dispatcher runs each
// pool's epoch through the existing edge.Run path, in parallel. Between
// epochs the placer rebalances — migrating streams off quorum-degraded
// or over-committed pools — and every dropped frame carries exactly one
// cluster-level cause (metrics.ClusterDrops), extending the pool-level
// one-cause-per-drop taxonomy.
//
// Runs are seed-replayable bit-identically at any worker count: all
// placement, rebalancing, and aggregation decisions are made serially in
// a deterministic order, the parallel section only executes the
// already-decided per-pool runs, and cluster trace events are emitted
// exclusively from the serial control loop.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/edge"
	"repro/internal/spec"
)

// Priority is a stream's admission class. Placement admits and places
// high-priority streams first; rebalancing and tenant throttling shed
// low-priority streams first.
type Priority int

const (
	Low Priority = iota
	Normal
	High
	numPriorities
)

var priorityNames = [numPriorities]string{
	Low:    "low",
	Normal: "normal",
	High:   "high",
}

// String names the class (the spelling ParseStreams accepts).
func (p Priority) String() string {
	if p < 0 || p >= numPriorities {
		return fmt.Sprintf("cluster.Priority(%d)", int(p))
	}
	return priorityNames[p]
}

// StreamSpec declares one camera stream to serve: who owns it, how
// urgent it is, and what it sends.
type StreamSpec struct {
	// Name identifies the stream; unique within a scheduler.
	Name string
	// Tenant groups streams for per-tenant admission control ("default"
	// when unset).
	Tenant string
	// Class is the admission priority.
	Class Priority
	// Rate is the stream's expected frame rate in FPS (required, > 0).
	Rate float64
	// SLO is the serving deadline in seconds: a pool serving this stream
	// sheds frames it cannot clear within the tightest SLO placed on it.
	// Zero inherits the cluster's default deadline.
	SLO float64
	// Deviation is the workload fluctuation fraction in [0,1] (default
	// 0.3, the paper's stable scenario).
	Deviation float64
	// Interval is the fluctuation redraw period in seconds (default 5).
	Interval float64
	// Scenario optionally names the workload-grammar scenario this stream
	// adopted its shape from (the scn= key); informational once parsed.
	Scenario string
	// Diurnal optionally modulates the stream with a sinusoidal cycle,
	// carried into each pool's composite scenario (set via scn=).
	Diurnal *edge.Diurnal
}

// Validate checks one spec's invariants.
func (s StreamSpec) Validate() error {
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"rate", s.Rate}, {"slo", s.SLO}, {"dev", s.Deviation}, {"interval", s.Interval}} {
		if err := spec.Finite(f.key, f.v); err != nil {
			return fmt.Errorf("cluster: stream %q %w", s.Name, err)
		}
	}
	switch {
	case s.Name == "":
		return fmt.Errorf("cluster: stream with empty name")
	case s.Class < 0 || s.Class >= numPriorities:
		return fmt.Errorf("cluster: stream %q has invalid priority %d", s.Name, int(s.Class))
	case s.Rate <= 0:
		return fmt.Errorf("cluster: stream %q has non-positive rate %v", s.Name, s.Rate)
	case s.SLO < 0:
		return fmt.Errorf("cluster: stream %q has negative SLO %v", s.Name, s.SLO)
	case s.Deviation < 0 || s.Deviation > 1:
		return fmt.Errorf("cluster: stream %q deviation %v outside [0,1]", s.Name, s.Deviation)
	case s.Interval < 0:
		return fmt.Errorf("cluster: stream %q interval %v negative", s.Name, s.Interval)
	case s.Interval != 0 && s.Interval < edge.MinInterval:
		return fmt.Errorf("cluster: stream %q interval %v below the %v s floor", s.Name, s.Interval, edge.MinInterval)
	}
	return nil
}

func (s *StreamSpec) defaults() {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Deviation == 0 {
		s.Deviation = 0.3
	}
	if s.Interval == 0 {
		s.Interval = 5
	}
}

var streamKeys = []string{"rate", "prio", "tenant", "slo", "dev", "interval", "scn"}

// adoptScenario copies a named workload scenario's shape onto the stream:
// the first phase's deviation and redraw interval, plus any diurnal
// cycle. Scenarios with components a per-stream load cannot carry
// (bursts, heavy tail, churn, correlated bursts, replay) are hard errors
// — a stream never silently serves a flattened version of its workload.
func (s *StreamSpec) adoptScenario(name string) error {
	scn, err := edge.NamedScenario(name)
	if err != nil {
		return fmt.Errorf("cluster: stream %q scn=%q: %w", s.Name, name, err)
	}
	switch {
	case len(scn.Bursts) > 0, scn.Tail != nil, scn.Corr != nil, scn.Churn != nil, scn.Replay != nil:
		return fmt.Errorf("cluster: stream %q scn=%q: scenario has components a per-stream load cannot carry (only phases and diurnal compose)", s.Name, name)
	case len(scn.Phases) != 1:
		return fmt.Errorf("cluster: stream %q scn=%q: scenario has %d phases, want exactly 1", s.Name, name, len(scn.Phases))
	}
	s.Scenario = name
	s.Deviation = scn.Phases[0].Deviation
	s.Interval = scn.Phases[0].Interval
	s.Diurnal = scn.Diurnal
	return nil
}

// MaxStreams bounds the streams one spec or scheduler declares: 100× the
// 1000-stream fleet, far below what would exhaust memory.
const MaxStreams = 100000

// ParseStreams parses a stream-spec of semicolon-separated declarations,
// each "name[*count]:key=value,..." in the syntax of internal/spec, e.g.
//
//	cam*96:rate=30,tenant=bronze;ptz*4:rate=60,prio=high,tenant=gold,slo=0.05
//
// Keys: rate (FPS, required), prio (low|normal|high), tenant, slo
// (deadline seconds), dev (fluctuation fraction), interval (redraw
// seconds), scn (a named workload-grammar scenario — "diurnal", say —
// whose phase shape and diurnal cycle the stream adopts; later dev= or
// interval= keys override the adopted values). "name*N" expands to
// name-0 … name-(N-1), all sharing the declaration; a spec may declare
// at most MaxStreams streams. An unknown key or priority is a hard parse
// error with a did-you-mean hint — misdeclared streams never degrade to a
// silent default. An empty spec yields an empty set.
func ParseStreams(s string) ([]StreamSpec, error) {
	var out []StreamSpec
	seen := make(map[string]bool)
	for _, d := range spec.Split(s, ";") {
		if !d.Colon {
			return nil, fmt.Errorf("cluster: stream %q missing ':' before parameters", d.Text)
		}
		name, count := d.Head, 1
		if base, n, starred := strings.Cut(name, "*"); starred {
			c, err := strconv.Atoi(strings.TrimSpace(n))
			if err != nil || c < 1 {
				return nil, fmt.Errorf("cluster: stream %q has invalid count %q", base, n)
			}
			name, count = strings.TrimSpace(base), c
		}
		if err := spec.CheckName(name); err != nil {
			return nil, fmt.Errorf("cluster: stream declaration %q: %w", d.Text, err)
		}
		if count > MaxStreams-len(out) {
			return nil, fmt.Errorf("cluster: stream %q: spec declares more than %d streams", name, MaxStreams)
		}
		if err := d.Check(streamKeys); err != nil {
			return nil, fmt.Errorf("cluster: stream %q: %w", name, err)
		}
		// The grammar's default priority is normal; the zero value of a
		// StreamSpec built in code is low (shed first), the conservative
		// choice for undeclared intent.
		st := StreamSpec{Name: name, Class: Normal}
		sawRate := false
		for _, kv := range d.Params {
			switch kv.Key {
			case "rate", "slo", "dev", "interval":
				f, err := spec.Float(kv.Key, kv.Value)
				if err != nil {
					return nil, fmt.Errorf("cluster: stream %q %w", name, err)
				}
				switch kv.Key {
				case "rate":
					st.Rate, sawRate = f, true
				case "slo":
					st.SLO = f
				case "dev":
					st.Deviation = f
				case "interval":
					st.Interval = f
				}
			case "prio":
				p, err := spec.Lookup("priority", kv.Value, priorityNames[:])
				if err != nil {
					return nil, fmt.Errorf("cluster: %w", err)
				}
				st.Class = Priority(p)
			case "tenant":
				if kv.Value == "" {
					return nil, fmt.Errorf("cluster: stream %q has empty tenant", name)
				}
				st.Tenant = kv.Value
			case "scn":
				if err := st.adoptScenario(kv.Value); err != nil {
					return nil, err
				}
			}
		}
		if !sawRate {
			return nil, fmt.Errorf("cluster: stream %q missing required rate=", name)
		}
		st.defaults()
		if err := st.Validate(); err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			e := st
			if count > 1 {
				e.Name = fmt.Sprintf("%s-%d", name, i)
			}
			if seen[e.Name] {
				return nil, fmt.Errorf("cluster: duplicate stream name %q", e.Name)
			}
			seen[e.Name] = true
			out = append(out, e)
		}
	}
	return out, nil
}

// DefaultStreams builds the CLI's synthetic fleet of n cameras: a 10 %
// gold tier (high priority, 60 FPS PTZ cameras with a 50 ms SLO), a 30 %
// silver tier (normal priority at 30 FPS), and a 60 % bronze tier (low
// priority at 15 FPS, shed first under pressure).
func DefaultStreams(n int) []StreamSpec {
	out := make([]StreamSpec, 0, n)
	for i := 0; i < n; i++ {
		s := StreamSpec{Name: fmt.Sprintf("cam-%d", i)}
		switch i % 10 {
		case 0:
			s.Tenant, s.Class, s.Rate, s.SLO = "gold", High, 60, 0.05
		case 1, 2, 3:
			s.Tenant, s.Class, s.Rate = "silver", Normal, 30
		default:
			s.Tenant, s.Class, s.Rate = "bronze", Low, 15
		}
		s.defaults()
		out = append(out, s)
	}
	return out
}
