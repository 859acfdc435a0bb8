package edge

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// The workload grammar. A scenario spec is a `|`-separated list of
// primitives, each "name:key=value,..." in the syntax of internal/spec
// (or a bare "name" when every parameter has a default):
//
//	base:dur=60,devices=20,fps=30,name=rush
//	  | phase:dev=0.2,every=1
//	  | diurnal:period=20,amp=0.45
//	  | burst:at=15,x=3,len=2
//	  | tail:pareto,alpha=1.5
//	  | churn:min=10,max=40,step=4,every=2
//	  | corr:groups=5,p=0.15,x=3,len=2,every=1
//	  | replay:file=trace.jsonl
//
// A spec that is exactly a registered scenario name ("paper1", "diurnal",
// …) resolves to that named spec — NamedScenarios lists them. Unknown
// primitives and parameters are hard parse errors with did-you-mean
// hints; a misspelled spec never degrades to a silent default workload.

// primitive names, in the order the error message lists them.
var primitiveNames = []string{
	"base", "stable", "unpredictable", "phase",
	"diurnal", "burst", "tail", "churn", "corr", "replay",
}

// primitiveKeys maps each primitive to its accepted parameter keys.
var primitiveKeys = map[string][]string{
	"base":          {"dur", "devices", "fps", "name"},
	"stable":        {"from", "dev", "every"},
	"unpredictable": {"from", "dev", "every"},
	"phase":         {"from", "dev", "every"},
	"diurnal":       {"period", "amp", "shift"},
	"burst":         {"at", "x", "len"},
	"tail":          {"alpha", "cap"},
	"churn":         {"min", "max", "step", "every"},
	"corr":          {"groups", "p", "x", "len", "every"},
	"replay":        {"file"},
}

// namedSpecs registers the scenario zoo: the paper's three workloads
// (byte-identical to the historical Scenario1/2/12 constructors — note
// the explicit name= pins, which keep the per-run RNG stream labels
// unchanged) plus one named family per grammar primitive.
var namedSpecs = map[string]string{
	// The paper's §V workloads.
	"paper1":  "base:name=scenario1 | stable",
	"paper2":  "base:name=scenario2 | unpredictable",
	"paper12": "base:name=scenario1+2 | stable | unpredictable:from=15",
	// The extension families (one per modulation law).
	"paper-churn": "base:name=scenario-churn | stable | churn:min=8,max=32,step=6,every=2",
	"diurnal":     "base:name=diurnal,dur=60 | phase:dev=0.15,every=1 | diurnal:period=20,amp=0.45",
	"flash":       "base:name=flash,dur=40 | stable:every=2 | burst:at=10,x=2.5,len=3 | burst:at=25,x=3.5,len=2",
	"heavytail":   "base:name=heavytail,dur=40 | phase:dev=0.2,every=1 | tail:alpha=1.6,cap=6",
	"multicam":    "base:name=multicam,dur=40 | phase:dev=0.1,every=1 | corr:groups=5,p=0.15,x=3,len=2,every=1",
}

// NamedScenarios returns the registered scenario names and their spec
// strings (a copy — mutating it does not affect the registry).
func NamedScenarios() map[string]string {
	out := make(map[string]string, len(namedSpecs))
	for k, v := range namedSpecs {
		out[k] = v
	}
	return out
}

// NamedScenario parses one registered scenario by name.
func NamedScenario(name string) (Scenario, error) {
	s, ok := namedSpecs[strings.TrimSpace(name)]
	if !ok {
		return Scenario{}, fmt.Errorf("edge: %w", spec.Unknown("scenario name", name, namedNames()))
	}
	return ParseScenario(s)
}

func namedNames() []string {
	names := make([]string, 0, len(namedSpecs))
	for k := range namedSpecs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ParseScenario parses a workload spec (or a registered scenario name)
// into a Scenario. Every call builds fresh slices, so callers may mutate
// the result freely. Defaults: 25 s of 20 devices at 30 FPS (the paper's
// frame), a stable ±30 %/5 s phase when no phase primitive is given, and
// the scenario is named after its spec unless base:name= pins one.
func ParseScenario(s string) (Scenario, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return Scenario{}, fmt.Errorf("edge: empty scenario spec")
	}
	if named, ok := namedSpecs[trimmed]; ok {
		return ParseScenario(named)
	}
	scn := Scenario{Name: trimmed, Duration: 25, Devices: 20, PerDeviceFPS: 30}
	seen := map[string]bool{}
	for _, d := range spec.Split(trimmed, "|") {
		keys, ok := primitiveKeys[d.Head]
		if !ok {
			return Scenario{}, fmt.Errorf("edge: spec %q: %w", trimmed, spec.Unknown("primitive", d.Head, primitiveNames))
		}
		switch d.Head {
		case "base", "diurnal", "tail", "churn", "corr", "replay":
			if seen[d.Head] {
				return Scenario{}, fmt.Errorf("edge: spec %q: duplicate %s primitive", trimmed, d.Head)
			}
			seen[d.Head] = true
		}
		p, err := parseParams(d, keys)
		if err != nil {
			return Scenario{}, fmt.Errorf("edge: spec %q: %s: %w", trimmed, d.Text, err)
		}
		if err := applyPrimitive(&scn, trimmed, d.Text, d.Head, p); err != nil {
			return Scenario{}, err
		}
	}
	if len(scn.Phases) == 0 && scn.Replay == nil {
		scn.Phases = []Phase{{Start: 0, Deviation: 0.30, Interval: 5}}
	}
	if err := scn.Validate(); err != nil {
		return Scenario{}, err
	}
	return scn, nil
}

// params maps a primitive's keys to their values.
type params map[string]string

func (p params) num(key, dflt string) float64 {
	v, ok := p[key]
	if !ok {
		v = dflt
	}
	f, _ := strconv.ParseFloat(v, 64)
	return f
}

// parseParams checks a primitive's parameters: base:name= and
// replay:file= are strings, every other key a finite number. The one
// bare token is tail's distribution name, "pareto".
func parseParams(d spec.Decl, keys []string) (params, error) {
	var bare []string
	if d.Head == "tail" {
		bare = []string{"pareto"}
	}
	if err := d.Check(keys, bare...); err != nil {
		return nil, err
	}
	p := params{}
	for _, kv := range d.Params {
		if kv.Bare {
			continue
		}
		if !(d.Head == "base" && kv.Key == "name" || d.Head == "replay" && kv.Key == "file") {
			if _, err := spec.Float(kv.Key, kv.Value); err != nil {
				return nil, err
			}
		}
		p[kv.Key] = kv.Value
	}
	return p, nil
}

// applyPrimitive folds one parsed primitive into the scenario.
func applyPrimitive(scn *Scenario, specText, part, name string, p params) error {
	require := func(keys ...string) error {
		for _, k := range keys {
			if _, ok := p[k]; !ok {
				return fmt.Errorf("edge: spec %q: %s: missing required parameter %s=", specText, part, k)
			}
		}
		return nil
	}
	// intp converts an integer-valued parameter, rejecting fractions and
	// magnitudes that would overflow the int conversion.
	intp := func(key, dflt string) (int, error) {
		f := p.num(key, dflt)
		if f != math.Trunc(f) || f < -1e9 || f > 1e9 {
			return 0, fmt.Errorf("edge: spec %q: %s: %s=%v is not an integer in range", specText, part, key, f)
		}
		return int(f), nil
	}
	switch name {
	case "base":
		scn.Duration = p.num("dur", "25")
		d, err := intp("devices", "20")
		if err != nil {
			return err
		}
		scn.Devices = d
		scn.PerDeviceFPS = p.num("fps", "30")
		if n, ok := p["name"]; ok {
			if err := spec.CheckName(n); err != nil {
				return fmt.Errorf("edge: spec %q: %s: %w", specText, part, err)
			}
			scn.Name = n
		}
	case "stable":
		scn.Phases = append(scn.Phases, Phase{
			Start: p.num("from", "0"), Deviation: p.num("dev", "0.30"), Interval: p.num("every", "5"),
		})
	case "unpredictable":
		scn.Phases = append(scn.Phases, Phase{
			Start: p.num("from", "0"), Deviation: p.num("dev", "0.70"), Interval: p.num("every", "0.5"),
		})
	case "phase":
		if err := require("dev", "every"); err != nil {
			return err
		}
		scn.Phases = append(scn.Phases, Phase{
			Start: p.num("from", "0"), Deviation: p.num("dev", "0"), Interval: p.num("every", "0"),
		})
	case "diurnal":
		if err := require("period", "amp"); err != nil {
			return err
		}
		scn.Diurnal = &Diurnal{
			Period: p.num("period", "0"), Amplitude: p.num("amp", "0"), Shift: p.num("shift", "0"),
		}
	case "burst":
		if err := require("at"); err != nil {
			return err
		}
		scn.Bursts = append(scn.Bursts, Burst{
			At: p.num("at", "0"), Factor: p.num("x", "3"), Len: p.num("len", "1"),
		})
	case "tail":
		if err := require("alpha"); err != nil {
			return err
		}
		scn.Tail = &Tail{Alpha: p.num("alpha", "0"), Cap: p.num("cap", "0")}
	case "churn":
		if err := require("min", "max"); err != nil {
			return err
		}
		min, err := intp("min", "0")
		if err != nil {
			return err
		}
		max, err := intp("max", "0")
		if err != nil {
			return err
		}
		step, err := intp("step", "1")
		if err != nil {
			return err
		}
		scn.Churn = &Churn{
			MinDevices: min, MaxDevices: max,
			MaxStep: step, Interval: p.num("every", "5"),
		}
	case "corr":
		if err := require("groups"); err != nil {
			return err
		}
		groups, err := intp("groups", "0")
		if err != nil {
			return err
		}
		scn.Corr = &CorrBurst{
			Groups: groups, Prob: p.num("p", "0.1"),
			Factor: p.num("x", "3"), Len: p.num("len", "1"), Every: p.num("every", "1"),
		}
	case "replay":
		file, ok := p["file"]
		if !ok || file == "" {
			return fmt.Errorf("edge: spec %q: %s: missing required parameter file=", specText, part)
		}
		tr, err := ReadRateTraceFile(file)
		if err != nil {
			return fmt.Errorf("edge: spec %q: %s: %w", specText, part, err)
		}
		replayed := tr.Scenario()
		scn.Name = replayed.Name
		scn.Duration = replayed.Duration
		scn.Devices = replayed.Devices
		scn.PerDeviceFPS = replayed.PerDeviceFPS
		scn.Replay = replayed.Replay
	}
	return nil
}

// Spec renders the scenario in the canonical form ParseScenario accepts,
// so specs round-trip: ParseScenario(s.Spec()) reproduces s (the
// scenario name is embedded only when it is spec-safe; replay scenarios
// render their recorded trace by reference and cannot be re-embedded —
// they return "" and must be rebuilt from their trace file). It is the
// scenario analogue of fault.Plan.String.
func (s Scenario) Spec() string {
	if s.Replay != nil {
		return ""
	}
	base := fmt.Sprintf("base:dur=%v,devices=%d,fps=%v", s.Duration, s.Devices, s.PerDeviceFPS)
	if spec.CheckName(s.Name) == nil {
		base += ",name=" + s.Name
	}
	parts := []string{base}
	for _, p := range s.Phases {
		parts = append(parts, fmt.Sprintf("phase:from=%v,dev=%v,every=%v", p.Start, p.Deviation, p.Interval))
	}
	if d := s.Diurnal; d != nil {
		parts = append(parts, fmt.Sprintf("diurnal:period=%v,amp=%v,shift=%v", d.Period, d.Amplitude, d.Shift))
	}
	for _, b := range s.Bursts {
		parts = append(parts, fmt.Sprintf("burst:at=%v,x=%v,len=%v", b.At, b.Factor, b.Len))
	}
	if t := s.Tail; t != nil {
		parts = append(parts, fmt.Sprintf("tail:alpha=%v,cap=%v", t.Alpha, t.Cap))
	}
	if c := s.Churn; c != nil {
		parts = append(parts, fmt.Sprintf("churn:min=%d,max=%d,step=%d,every=%v",
			c.MinDevices, c.MaxDevices, c.MaxStep, c.Interval))
	}
	if c := s.Corr; c != nil {
		parts = append(parts, fmt.Sprintf("corr:groups=%d,p=%v,x=%v,len=%v,every=%v",
			c.Groups, c.Prob, c.Factor, c.Len, c.Every))
	}
	return strings.Join(parts, " | ")
}
