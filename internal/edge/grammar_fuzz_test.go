package edge

import (
	"reflect"
	"testing"
)

// FuzzParseScenario asserts the workload grammar's safety contract,
// mirroring fault.FuzzParsePlan: ParseScenario never panics, and any
// spec it accepts must (a) pass Scenario validation, (b) survive a
// Spec() → ParseScenario round trip unchanged (replay scenarios, which
// cannot re-embed their trace, excepted), and (c) build a usable
// Workload. Unknown primitives and malformed parameters must be
// rejected, never silently dropped.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"",
		"paper1", "paper2", "paper12", "paper-churn",
		"diurnal", "flash", "heavytail", "multicam",
		"base:dur=60,devices=20,fps=30,name=rush",
		"stable | unpredictable:from=15",
		"phase:dev=0.2,every=1",
		"diurnal:period=60,amp=0.4,shift=5",
		"burst:at=15,x=3,len=2 | burst:at=20,x=2",
		"tail:pareto,alpha=1.5",
		"tail:alpha=1.6,cap=6",
		"churn:min=10,max=40,step=4,every=2",
		"corr:groups=5,p=0.15,x=3,len=2,every=1",
		"replay:file=trace.jsonl",
		"diurnl:period=20",
		"base:devices=20.5",
		"tail:alpha=NaN",
		"phase:dev=0.2,evry=1",
		"|||",
		"base:name=scenario1 | stable | stable | stable",
		// Lexical rules every spec grammar shares.
		"phase:dev=0.2,every=1,",
		"phase:dev=NaN,every=1",
		"phase:dev=0.2,every=Inf",
		"phase:dev=0.2,every=1,flag",
		"phase:dev=0.2,every=1,wat=abc",
		"churn:min=10,max=40,step=4,every=1e-300",
		"stable*100001",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseScenario(spec)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("spec %q: accepted scenario fails validation: %v", spec, verr)
		}
		// Round trip: the rendered spec is a fixed point of the grammar.
		// (The scenario name defaults to the spec string itself, which may
		// not be re-embeddable, so compare everything but the name.)
		if s.Replay == nil {
			rendered := s.Spec()
			s2, err := ParseScenario(rendered)
			if err != nil {
				t.Fatalf("spec %q: round trip of %q rejected: %v", spec, rendered, err)
			}
			if s2.Spec() != rendered {
				t.Fatalf("spec %q: Spec() not a fixed point: %q -> %q", spec, rendered, s2.Spec())
			}
			a, b := s, s2
			a.Name, b.Name = "", ""
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("spec %q: round trip changed scenario:\n  %+v\n  %+v", spec, a, b)
			}
		}
		// Any accepted scenario must build a workload (its constructor
		// draws the initial rate) and answer a boundary query.
		wl, err := NewWorkload(s, newTestRNG())
		if err != nil {
			t.Fatalf("spec %q: accepted scenario rejected by NewWorkload: %v", spec, err)
		}
		if r := wl.Rate(); r < 0 {
			t.Fatalf("spec %q: negative initial rate %v", spec, r)
		}
		_ = wl.NextBoundary(0)
	})
}
