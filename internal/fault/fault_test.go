package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "reconfig-fail:p=0.7,start=2,end=12;sensor-dropout:p=0.25;sensor-spike:p=0.2,mag=1.5;accuracy-drift:p=0.1,mag=-0.03;reconfig-stall:p=0.3,mag=4"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 5 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	if r := p.Rules[0]; r.Kind != ReconfigFail || r.Prob != 0.7 || r.Start != 2 || r.End != 12 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := p.Rules[2]; r.Kind != SensorSpike || r.Mag != 1.5 {
		t.Fatalf("rule 2 = %+v", r)
	}
	// String() renders a spec ParsePlan accepts and parses to the same plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(p2.Rules) != len(p.Rules) {
		t.Fatalf("round trip lost rules: %v", p.String())
	}
	for i := range p.Rules {
		if p.Rules[i] != p2.Rules[i] {
			t.Fatalf("rule %d: %+v != %+v", i, p.Rules[i], p2.Rules[i])
		}
	}
}

func TestParsePlanEmpty(t *testing.T) {
	p, err := ParsePlan("  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 0 {
		t.Fatalf("empty spec produced rules: %+v", p.Rules)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus-kind:p=0.5",
		"reconfig-fail",                     // missing p
		"reconfig-fail:p=1.5",               // prob out of range
		"reconfig-fail:p=0.5,start=-1",      // negative start
		"reconfig-fail:p=0.5,start=5,end=2", // empty window
		"reconfig-fail:p=0.5,wat=3",         // unknown key
		"reconfig-fail:p=abc",               // bad float
		"reconfig-fail:p",                   // not key=value
		"reconfig-stall:p=0.5,mag=0.5",      // stall factor below 1
		"sensor-spike:p=0.5,mag=-1",         // negative amplitude
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestRuleRejectsNonFinite: NaN and ±Inf are errors on every numeric
// rule key, whether parsed or built in Go.
func TestRuleRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		key, spec string // spec takes the value in place of %s
		set       func(*Rule, float64)
	}{
		{"p", "reconfig-fail:p=%s", func(r *Rule, v float64) { r.Prob = v }},
		{"start", "reconfig-fail:p=0.5,start=%s", func(r *Rule, v float64) { r.Start = v }},
		{"end", "reconfig-fail:p=0.5,end=%s", func(r *Rule, v float64) { r.End = v }},
		{"mag", "accuracy-drift:p=1,mag=%s", func(r *Rule, v float64) { r.Mag = v }},
		{"slope", "drift-sustained:p=1,slope=%s", func(r *Rule, v float64) { r.Slope = v }},
		{"hold", "drift-sustained:p=1,hold=%s", func(r *Rule, v float64) { r.Hold = v }},
		{"repair", "board-crash:p=1,repair=%s", func(r *Rule, v float64) { r.Repair = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			want := fmt.Sprintf("%s=%v is not a finite number", tc.key, v)
			spec := fmt.Sprintf(tc.spec, fmt.Sprint(v))
			if _, err := ParsePlan(spec); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ParsePlan(%q) = %v, want an error containing %q", spec, err, want)
			}
			plan, err := ParsePlan(fmt.Sprintf(tc.spec, "1"))
			if err != nil {
				t.Fatal(err)
			}
			r := plan.Rules[0]
			tc.set(&r, v)
			if err := r.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%+v: Validate() = %v, want an error containing %q", r, err, want)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if ReconfigFail.String() != "reconfig-fail" || AccuracyDrift.String() != "accuracy-drift" {
		t.Fatal("kind names")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind string")
	}
}

// TestInjectorDeterministic: two injectors with the same plan and seed
// produce identical outcomes for an identical query sequence.
func TestInjectorDeterministic(t *testing.T) {
	plan, err := ParsePlan("reconfig-fail:p=0.4;reconfig-stall:p=0.3;sensor-dropout:p=0.2;sensor-spike:p=0.3;accuracy-drift:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]ReconfigOutcome, []float64, []bool, []float64, Counts) {
		in, err := NewInjector(plan, 7)
		if err != nil {
			t.Fatal(err)
		}
		var outs []ReconfigOutcome
		var obs []float64
		var oks []bool
		var drifts []float64
		for i := 0; i < 200; i++ {
			now := float64(i) * 0.1
			outs = append(outs, in.Reconfig(now))
			o, ok := in.Observe(now, 600)
			obs = append(obs, o)
			oks = append(oks, ok)
			drifts = append(drifts, in.Drift(now))
		}
		return outs, obs, oks, drifts, in.Counts()
	}
	o1, b1, k1, d1, c1 := run()
	o2, b2, k2, d2, c2 := run()
	if c1 != c2 {
		t.Fatalf("counts differ: %+v vs %+v", c1, c2)
	}
	for i := range o1 {
		if o1[i] != o2[i] || b1[i] != b2[i] || k1[i] != k2[i] || d1[i] != d2[i] {
			t.Fatalf("query %d differs", i)
		}
	}
	if c1.ReconfigFailures == 0 || c1.SensorDropouts == 0 || c1.SensorSpikes == 0 || c1.AccuracyDrifts == 0 || c1.ReconfigStalls == 0 {
		t.Fatalf("some fault class never fired: %+v", c1)
	}
}

// TestInjectorSeedsIndependent: different seeds give different fault
// sequences (with overwhelming probability at 200 draws, p=0.5).
func TestInjectorSeedsIndependent(t *testing.T) {
	plan, _ := ParsePlan("sensor-dropout:p=0.5")
	draw := func(seed int64) []bool {
		in, _ := NewInjector(plan, seed)
		var ks []bool
		for i := 0; i < 200; i++ {
			_, ok := in.Observe(float64(i), 1)
			ks = append(ks, ok)
		}
		return ks
	}
	a, b := draw(1), draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical dropout sequences")
	}
}

// TestWindowRespected: a rule only fires inside its [Start, End) window.
func TestWindowRespected(t *testing.T) {
	plan, _ := ParsePlan("reconfig-fail:p=1,start=5,end=10")
	in, _ := NewInjector(plan, 1)
	for _, tc := range []struct {
		now  float64
		fail bool
	}{{0, false}, {4.99, false}, {5, true}, {9.99, true}, {10, false}, {20, false}} {
		if out := in.Reconfig(tc.now); out.Failed != tc.fail {
			t.Fatalf("t=%v failed=%v, want %v", tc.now, out.Failed, tc.fail)
		}
	}
	if got := in.Counts().ReconfigFailures; got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}
}

// TestOpenEndedWindow: End=0 keeps the rule active forever.
func TestOpenEndedWindow(t *testing.T) {
	plan, _ := ParsePlan("accuracy-drift:p=1,start=3")
	in, _ := NewInjector(plan, 1)
	if d := in.Drift(1); d != 0 {
		t.Fatalf("drift before window: %v", d)
	}
	if d := in.Drift(1e6); d != defaultMag(AccuracyDrift) {
		t.Fatalf("drift = %v, want default %v", d, defaultMag(AccuracyDrift))
	}
}

// TestDefaultMagnitudes: unset Mag falls back to per-kind defaults.
func TestDefaultMagnitudes(t *testing.T) {
	plan, _ := ParsePlan("reconfig-stall:p=1")
	in, _ := NewInjector(plan, 1)
	out := in.Reconfig(0)
	if out.Failed || out.StallFactor != 3 {
		t.Fatalf("outcome %+v, want default 3x stall", out)
	}
}

// TestSpikeBounds: spiked observations stay non-negative and within the
// amplitude band.
func TestSpikeBounds(t *testing.T) {
	plan, _ := ParsePlan("sensor-spike:p=1,mag=2")
	in, _ := NewInjector(plan, 3)
	for i := 0; i < 500; i++ {
		obs, ok := in.Observe(float64(i), 100)
		if !ok {
			t.Fatal("spike rule caused dropout")
		}
		if obs < 0 || obs > 100*3 {
			t.Fatalf("spiked observation %v outside [0, 300]", obs)
		}
	}
}

// TestNilPlanFaultFree: a nil plan injects nothing.
func TestNilPlanFaultFree(t *testing.T) {
	in, err := NewInjector(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if out := in.Reconfig(float64(i)); out.Failed || out.StallFactor != 1 {
			t.Fatalf("fault-free reconfig outcome %+v", out)
		}
		if obs, ok := in.Observe(float64(i), 42); !ok || obs != 42 {
			t.Fatalf("fault-free observation %v %v", obs, ok)
		}
		if d := in.Drift(float64(i)); d != 0 {
			t.Fatalf("fault-free drift %v", d)
		}
	}
	if (in.Counts() != Counts{}) {
		t.Fatalf("fault-free counts %+v", in.Counts())
	}
}

// TestInjectorStreamsOnlyForPlannedKinds: the injector seeds a stream
// only for kinds its plan has rules for, and each such stream yields the
// sequence of sim.RNG(seed, "fault/"+kind), whatever else the plan holds.
func TestInjectorStreamsOnlyForPlannedKinds(t *testing.T) {
	const seed = 11
	plan := &Plan{Rules: []Rule{
		{Kind: ReconfigFail, Prob: 0.5},
		{Kind: SensorSpike, Prob: 0.5, Mag: 0.2},
		{Kind: ReconfigFail, Prob: 0.25, Start: 3},
	}}
	in, err := NewInjector(plan, seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := Kind(0); k < numKinds; k++ {
		planned := k == ReconfigFail || k == SensorSpike
		if got := in.streams[k] != nil; got != planned {
			t.Fatalf("%s: stream present = %v, want %v", k, got, planned)
		}
		if !planned {
			continue
		}
		want := sim.RNG(seed, "fault/"+k.String())
		for i := 0; i < 100; i++ {
			if g, w := in.streams[k].Float64(), want.Float64(); g != w {
				t.Fatalf("%s draw %d = %v, sim.RNG stream %v", k, i, g, w)
			}
		}
	}
	empty, err := NewInjector(nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range empty.streams {
		if s != nil {
			t.Fatalf("nil plan built a stream for %s", Kind(k))
		}
	}
}

// TestInvalidPlanRejected: NewInjector validates.
func TestInvalidPlanRejected(t *testing.T) {
	if _, err := NewInjector(&Plan{Rules: []Rule{{Kind: Kind(42), Prob: 0.5}}}, 1); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if _, err := NewInjector(&Plan{Rules: []Rule{{Kind: ReconfigFail, Prob: 2}}}, 1); err == nil {
		t.Fatal("invalid probability accepted")
	}
}

// TestParsePlanBoardGrammar covers the board-level rule parameters.
func TestParsePlanBoardGrammar(t *testing.T) {
	cases := []struct {
		spec   string
		board  int
		repair float64
	}{
		{"board-crash:p=1,board=2,start=5,end=5.3,repair=8", 2, 8},
		{"board-hang:p=0.5,repair=3", AnyBoard, 3},
		{"frame-corrupt:p=0.2,mag=0.5", AnyBoard, 0},
		{"board-brownout:p=0.1,mag=0.4,board=0", 0, 0},
	}
	for _, tc := range cases {
		p, err := ParsePlan(tc.spec)
		if err != nil {
			t.Errorf("spec %q rejected: %v", tc.spec, err)
			continue
		}
		r := p.Rules[0]
		if r.Board != tc.board || r.Repair != tc.repair {
			t.Errorf("spec %q: board=%d repair=%v, want %d/%v", tc.spec, r.Board, r.Repair, tc.board, tc.repair)
		}
		// Board rules survive the String() round trip too.
		p2, err := ParsePlan(p.String())
		if err != nil || p2.Rules[0] != r {
			t.Errorf("spec %q round trip: %+v vs %+v (%v)", tc.spec, r, p2.Rules[0], err)
		}
	}
}

// TestParsePlanBoardErrors: board-level parameter misuse is a hard error.
func TestParsePlanBoardErrors(t *testing.T) {
	for _, spec := range []string{
		"reconfig-fail:p=0.5,board=1",  // board= on a non-board kind
		"reconfig-fail:p=0.5,repair=3", // repair= on a non-board kind
		"board-crash:p=0.5,board=-2",   // board index below AnyBoard
		"board-crash:p=0.5,repair=-1",  // negative repair
		"frame-corrupt:p=0.5,mag=1.5",  // corrupt fraction above 1
		"board-crash:p=0.5,board=x",    // non-integer board
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParsePlanUnknownKindHint: unknown kinds are hard errors, and a
// near-miss earns a did-you-mean hint naming the intended kind.
func TestParsePlanUnknownKindHint(t *testing.T) {
	cases := []struct {
		spec string
		hint string // expected did-you-mean suggestion, "" = no hint
	}{
		{"board-cras:p=1", "board-crash"},
		{"board_crash:p=1", "board-crash"},
		{"frame-corupt:p=1", "frame-corrupt"},
		{"reconfig-fial:p=1", "reconfig-fail"},
		{"completely-bogus:p=1", ""},
	}
	for _, tc := range cases {
		_, err := ParsePlan(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown kind") {
			t.Errorf("spec %q: error %q does not name the unknown kind", tc.spec, msg)
		}
		if tc.hint != "" {
			if !strings.Contains(msg, "did you mean "+`"`+tc.hint+`"`) {
				t.Errorf("spec %q: error %q missing did-you-mean %q", tc.spec, msg, tc.hint)
			}
		} else if strings.Contains(msg, "did you mean") {
			t.Errorf("spec %q: spurious hint in %q", tc.spec, msg)
		}
		// All errors list the known kinds so the fix is self-serve.
		if !strings.Contains(msg, "board-crash") || !strings.Contains(msg, "reconfig-fail") {
			t.Errorf("spec %q: error %q does not list known kinds", tc.spec, msg)
		}
	}
}

// TestInjectorBoardDeterministic: board draws replay bit-identically and
// ignore rules targeting other boards without consuming randomness.
func TestInjectorBoardDeterministic(t *testing.T) {
	plan, err := ParsePlan("board-crash:p=0.1,board=0;board-hang:p=0.2;frame-corrupt:p=0.3,mag=0.5;board-brownout:p=0.2,mag=0.6")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []BoardOutcome {
		in, err := NewInjector(plan, 7)
		if err != nil {
			t.Fatal(err)
		}
		var outs []BoardOutcome
		for step := 0; step < 50; step++ {
			for b := 0; b < 3; b++ {
				outs = append(outs, in.Board(float64(step)*0.1, b))
			}
		}
		return outs
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors: %+v vs %+v", i, a[i], b[i])
		}
	}
	crashed := false
	for i, o := range a {
		if o.Crash {
			crashed = true
			if i%3 != 0 { // draws are emitted board-major: i%3 is the board
				t.Fatalf("crash fired for board %d; rule targets board 0", i%3)
			}
		}
	}
	if !crashed {
		t.Fatal("crash rule with p=0.1 over 50 steps never fired; seed draws broken")
	}
}
