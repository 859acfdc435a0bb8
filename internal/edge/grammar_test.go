package edge

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
)

// TestParseScenarioPaperIdentity pins the named paper specs to the
// historical hand-built scenario literals: the grammar must reproduce
// them field for field (the Name values feed the per-run RNG stream
// labels, so any drift here would silently change every seeded run).
func TestParseScenarioPaperIdentity(t *testing.T) {
	want := map[string]Scenario{
		"paper1": {
			Name: "scenario1", Duration: 25, Devices: 20, PerDeviceFPS: 30,
			Phases: []Phase{{Start: 0, Deviation: 0.30, Interval: 5}},
		},
		"paper2": {
			Name: "scenario2", Duration: 25, Devices: 20, PerDeviceFPS: 30,
			Phases: []Phase{{Start: 0, Deviation: 0.70, Interval: 0.5}},
		},
		"paper12": {
			Name: "scenario1+2", Duration: 25, Devices: 20, PerDeviceFPS: 30,
			Phases: []Phase{
				{Start: 0, Deviation: 0.30, Interval: 5},
				{Start: 15, Deviation: 0.70, Interval: 0.5},
			},
		},
		"paper-churn": {
			Name: "scenario-churn", Duration: 25, Devices: 20, PerDeviceFPS: 30,
			Phases: []Phase{{Start: 0, Deviation: 0.30, Interval: 5}},
			Churn:  &Churn{MinDevices: 8, MaxDevices: 32, MaxStep: 6, Interval: 2},
		},
	}
	for spec, w := range want {
		got, err := ParseScenario(spec)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("ParseScenario(%q) = %+v, want %+v", spec, got, w)
		}
	}
	// The historical constructors are thin wrappers over the named specs.
	for spec, got := range map[string]Scenario{
		"paper1": Scenario1(), "paper2": Scenario2(), "paper12": Scenario12(), "paper-churn": ScenarioChurn(),
	} {
		if !reflect.DeepEqual(got, want[spec]) {
			t.Errorf("constructor for %s diverged: %+v", spec, got)
		}
	}
}

// TestParseScenarioFreshSlices: each call must build independent slices
// (callers mutate scenario phases in place).
func TestParseScenarioFreshSlices(t *testing.T) {
	a := Scenario1()
	a.Phases[0].Deviation = 0.99
	if b := Scenario1(); b.Phases[0].Deviation != 0.30 {
		t.Fatalf("Scenario1 calls share phase slices: got deviation %v", b.Phases[0].Deviation)
	}
}

func TestNamedScenariosAllParse(t *testing.T) {
	names := NamedScenarios()
	if len(names) < 7 {
		t.Fatalf("expected a scenario zoo, got %d names", len(names))
	}
	for name, spec := range names {
		s, err := ParseScenario(name)
		if err != nil {
			t.Errorf("named scenario %q (%q): %v", name, spec, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("named scenario %q invalid: %v", name, err)
		}
		if s.Name == name && strings.Contains(spec, "name=") {
			// base:name= pins a distinct run name (e.g. paper1→scenario1);
			// nothing to assert beyond successful parse.
			continue
		}
	}
	if _, err := NamedScenario("paper3"); err == nil || !strings.Contains(err.Error(), "unknown scenario name") {
		t.Fatalf("NamedScenario(paper3) error = %v", err)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty scenario spec"},
		{"diurnl:period=20,amp=0.4", `did you mean "diurnal"`},
		{"diurnal:perriod=20,amp=0.4", `did you mean "period"`},
		{"diurnal:amp=0.4", "missing required parameter period="},
		{"diurnal:period=20,amp=0.4 | diurnal:period=30,amp=0.1", "duplicate diurnal"},
		{"burst:x=3", "missing required parameter at="},
		{"tail:alpha=0.5", "must exceed 1"},
		{"tail:paretoo,alpha=1.5", "not key=value"},
		{"churn:min=10", "missing required parameter max="},
		{"corr:p=0.1", "missing required parameter groups="},
		{"base:name=has space", "characters outside"},
		{"base:dur=-1", "non-positive duration"},
		{"phase:dev=0.2", "missing required parameter every="},
		{"replay:len=2", `unknown parameter "len"`},
		{"replay", "missing required parameter file="},
		{"replay:file=/definitely/not/there.jsonl", "no such file"},
		{"stable:dev=2", "out of [0,1]"},
		{"burst:at=1,x=0", "factor 0 must be positive"},
		{"tail:alpha=NaN", "alpha=NaN is not a finite number"},
		{"phase:dev=0.2,every=0.00001", "interval 1e-05 below the 0.001 s floor"},
		{"stable:every=0.0009", "below the 0.001 s floor"},
		{"churn:min=10,max=40,step=4,every=1e-300", "churn interval 1e-300 below the 0.001 s floor"},
		{"corr:groups=5,every=1e-300", "corr burst interval 1e-300 below the 0.001 s floor"},
	}
	for _, c := range cases {
		_, err := ParseScenario(c.spec)
		if err == nil {
			t.Errorf("ParseScenario(%q) accepted, want error containing %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseScenario(%q) error %q, want substring %q", c.spec, err, c.want)
		}
	}
}

// TestWorkloadIntervalFloor: a scenario built in Go gets the same redraw
// floor as a parsed one, so no interval is small enough to stall
// NextBoundary.
func TestWorkloadIntervalFloor(t *testing.T) {
	for name, edit := range map[string]func(*Scenario){
		"phase": func(s *Scenario) { s.Phases[0].Interval = 1e-300 },
		"churn": func(s *Scenario) { s.Churn = &Churn{MinDevices: 10, MaxDevices: 40, MaxStep: 4, Interval: 1e-300} },
		"corr":  func(s *Scenario) { s.Corr = &CorrBurst{Groups: 5, Prob: 0.1, Factor: 3, Len: 1, Every: 1e-300} },
	} {
		s := Scenario1()
		edit(&s)
		if _, err := NewWorkload(s, newTestRNG()); err == nil || !strings.Contains(err.Error(), "floor") {
			t.Errorf("%s interval 1e-300: NewWorkload error %v, want the floor", name, err)
		}
	}
}

// TestScenarioDurationCap: a duration that is NaN, infinite or above
// MaxDuration is refused, by the grammar, by Validate on a scenario built
// in Go and by a replay trace's header, so no spec runs without end.
func TestScenarioDurationCap(t *testing.T) {
	const spec = "base:dur=1e12 | phase:dev=0.3,every=0.001"
	if _, err := ParseScenario(spec); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("ParseScenario(%q) error %v, want the duration cap", spec, err)
	}
	if _, err := ParseScenario("base:dur=1e4 | phase:dev=0.3,every=5"); err != nil {
		t.Errorf("a MaxDuration scenario is refused: %v", err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), MaxDuration * (1 + 1e-15)} {
		s := Scenario1()
		s.Duration = d
		if err := s.Validate(); err == nil {
			t.Errorf("duration %v accepted", d)
		}
	}
	tr := &RateTrace{Name: "long", Duration: 2 * MaxDuration, Devices: 20, PerDeviceFPS: 30,
		Times: []float64{0}, Rates: []float64{600}}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRateTrace(&buf); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("replay header duration %v: error %v, want the duration cap", tr.Duration, err)
	}
}

// TestParseScenarioTailBareToken: the ISSUE-style "tail:pareto,alpha=…"
// spelling (bare distribution token) is accepted.
func TestParseScenarioTailBareToken(t *testing.T) {
	s, err := ParseScenario("tail:pareto,alpha=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail == nil || s.Tail.Alpha != 1.5 {
		t.Fatalf("tail = %+v", s.Tail)
	}
}

// TestSpecRoundTrip: Spec() renders a spec that parses back to the same
// scenario (the grammar analogue of fault.Plan.String round-tripping).
func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"paper1", "paper2", "paper12", "paper-churn",
		"diurnal", "flash", "heavytail", "multicam",
		"base:dur=10,devices=5,fps=12 | phase:dev=0.1,every=0.25 | burst:at=3,x=2,len=1 | tail:alpha=2,cap=4",
	}
	for _, text := range specs {
		s, err := ParseScenario(text)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", text, err)
		}
		re, err := ParseScenario(s.Spec())
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", s.Spec(), text, err)
		}
		// Ad-hoc scenarios are named after their spec string, which is not
		// re-embeddable — compare everything but the name for those.
		if spec.CheckName(s.Name) != nil {
			re.Name, s.Name = "", ""
		}
		if !reflect.DeepEqual(re, s) {
			t.Errorf("spec %q: round trip changed scenario\n  spec: %q\n  got:  %+v\n  want: %+v", text, s.Spec(), re, s)
		}
	}
}

// TestWorkloadDiurnal: the diurnal factor modulates the redrawn rate
// within 1±Amplitude of the phase band, and peaks where the sine peaks.
func TestWorkloadDiurnal(t *testing.T) {
	s, err := ParseScenario("base:dur=40 | phase:dev=0,every=1 | diurnal:period=40,amp=0.5")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(s, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	base := float64(s.Devices) * s.PerDeviceFPS
	// dev=0, so the rate is exactly base·(1+0.5·sin(2πt/40)).
	if r := wl.Redraw(10); math.Abs(r-base*1.5) > 1e-9 {
		t.Errorf("rate at crest = %v, want %v", r, base*1.5)
	}
	if r := wl.Redraw(30); math.Abs(r-base*0.5) > 1e-9 {
		t.Errorf("rate at trough = %v, want %v", r, base*0.5)
	}
}

// TestWorkloadBurst: burst windows multiply the rate and their edges are
// redraw boundaries.
func TestWorkloadBurst(t *testing.T) {
	s, err := ParseScenario("base:dur=20 | phase:dev=0,every=100 | burst:at=5,x=3,len=2")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(s, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	base := float64(s.Devices) * s.PerDeviceFPS
	if r := wl.Redraw(4.99); r != base {
		t.Errorf("pre-burst rate %v, want %v", r, base)
	}
	if r := wl.Redraw(5); r != 3*base {
		t.Errorf("burst rate %v, want %v", r, 3*base)
	}
	if r := wl.Redraw(7); r != base {
		t.Errorf("post-burst rate %v, want %v", r, base)
	}
	if nb := wl.NextBoundary(0); nb != 5 {
		t.Errorf("boundary after 0 = %v, want burst start 5", nb)
	}
	if nb := wl.NextBoundary(5); nb != 7 {
		t.Errorf("boundary after 5 = %v, want burst end 7", nb)
	}
}

// TestWorkloadTail: tail multipliers never exceed the cap and are heavy
// enough to spike above the uniform band sometimes.
func TestWorkloadTail(t *testing.T) {
	s, err := ParseScenario("base:dur=1000 | phase:dev=0,every=1 | tail:alpha=1.5,cap=6")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(s, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	base := float64(s.Devices) * s.PerDeviceFPS
	spikes := 0
	for i := 0; i < 1000; i++ {
		r := wl.Redraw(float64(i))
		if r > base*6+1e-9 {
			t.Fatalf("redraw %d: rate %v above cap", i, r)
		}
		if r > base*2 {
			spikes++
		}
	}
	if spikes == 0 {
		t.Error("no heavy-tail spikes in 1000 redraws")
	}
}

// TestWorkloadCorr: the correlated-burst factor stays within
// [1, Factor] and group expiries appear as boundaries.
func TestWorkloadCorr(t *testing.T) {
	s, err := ParseScenario("base:dur=100 | phase:dev=0,every=0.5 | corr:groups=4,p=0.3,x=3,len=2,every=1")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(s, newTestRNG())
	if err != nil {
		t.Fatal(err)
	}
	base := float64(s.Devices) * s.PerDeviceFPS
	burstSeen := false
	for i := 0; i < 200; i++ {
		tt := float64(i) * 0.5
		r := wl.Redraw(tt)
		if r < base-1e-9 || r > 3*base+1e-9 {
			t.Fatalf("t=%v: rate %v outside [base, 3·base]", tt, r)
		}
		if r > base+1e-9 {
			burstSeen = true
		}
	}
	if !burstSeen {
		t.Error("no correlated burst fired in 100 s at p=0.3")
	}
}

// TestPaperScenariosUnchangedRNG: the optional modulation laws must not
// disturb the paper scenarios' RNG draw sequence — a workload with no
// modulation components consumes exactly one Float64 per redraw, as the
// historical generator did.
func TestPaperScenariosUnchangedRNG(t *testing.T) {
	ref := sim.RNG(7, "workload/scenario1")
	rng := sim.RNG(7, "workload/scenario1")
	wl, err := NewWorkload(Scenario1(), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(20*30) * (1 + (ref.Float64()*2-1)*0.30)
	if got := wl.Rate(); got != want {
		t.Fatalf("initial draw %v, want %v (draw order changed)", got, want)
	}
	want = float64(20*30) * (1 + (ref.Float64()*2-1)*0.30)
	if got := wl.Redraw(5); got != want {
		t.Fatalf("second draw %v, want %v (extra RNG consumption)", got, want)
	}
}

// TestComposeDiurnal: diurnal components aggregate rate-weighted into the
// composite scenario, with period/shift from the highest-rate diurnal
// load and non-diurnal loads damping the amplitude.
func TestComposeDiurnal(t *testing.T) {
	day := &Diurnal{Period: 20, Amplitude: 0.4}
	scn, err := Compose("mixed", 10, []Load{
		{Streams: 1, FPS: 30, Diurnal: day},
		{Streams: 1, FPS: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if scn.Diurnal == nil {
		t.Fatal("diurnal load dropped by Compose")
	}
	if scn.Diurnal.Period != 20 || math.Abs(scn.Diurnal.Amplitude-0.2) > 1e-12 {
		t.Fatalf("composite diurnal = %+v, want period 20 amp 0.2", scn.Diurnal)
	}
	if scn2, err := Compose("plain", 10, []Load{{Streams: 2, FPS: 30}}); err != nil || scn2.Diurnal != nil {
		t.Fatalf("plain composite = %+v, %v; want nil diurnal", scn2.Diurnal, err)
	}
	if _, err := Compose("bad", 10, []Load{{Streams: 1, FPS: 30, Diurnal: &Diurnal{Period: -1}}}); err == nil {
		t.Fatal("invalid diurnal accepted")
	}
}
