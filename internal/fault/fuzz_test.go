package fault

import (
	"math"
	"strings"
	"testing"
)

// FuzzParsePlan asserts the plan grammar's safety contract: ParsePlan
// never panics, and any spec it accepts must (a) pass Rule validation and
// hold only finite numbers, (b) survive a String() → ParsePlan round trip unchanged, and (c) be
// usable to build an injector. Unknown kinds and malformed parameters
// must be rejected, never silently dropped.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"reconfig-fail:p=0.7,start=2,end=12",
		"sensor-dropout:p=0.25;sensor-spike:p=0.2,mag=1.5",
		"accuracy-drift:p=0.1,mag=-0.03",
		"board-crash:p=1,board=0,start=5,end=5.05,repair=60",
		"board-hang:p=0.5,repair=3;frame-corrupt:p=0.2,mag=0.5",
		"board-brownout:p=0.1,mag=0.4,board=2",
		"drift-sustained:p=1,start=3,mag=-0.2,slope=0.1,hold=5",
		"drift-sustained:p=0.5,start=0,end=4",
		"accuracy-drift:p=1,slope=0.1",
		"drift-sustained:p=1,slope=-1",
		"board-cras:p=1",
		"reconfig-fail:p=0.5,wat=3",
		"board-crash:p=0.5,board=-2",
		";;;",
		"board-crash:p=1,board=999999999999999999999",
		// Lexical rules every spec grammar shares.
		"reconfig-fail:p=1,",
		"reconfig-fail:p=NaN",
		"reconfig-fail:p=0.5,end=Inf",
		"reconfig-fail:p=1,flag",
		"reconfig-fail:p=1,wat=abc",
		"reconfig-fail:p=1,every=1e-300",
		"reconfig-fail*100001:p=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParsePlan(spec)
		if err != nil {
			if plan != nil {
				t.Fatalf("spec %q: error %v with non-nil plan", spec, err)
			}
			return
		}
		for i, r := range plan.Rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("spec %q: accepted rule %d fails validation: %v", spec, i, err)
			}
			for _, v := range []float64{r.Prob, r.Start, r.End, r.Mag, r.Slope, r.Hold, r.Repair} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("spec %q: accepted rule %d holds a non-finite number: %+v", spec, i, r)
				}
			}
		}
		// Round trip: the rendered spec parses back to the same plan.
		plan2, err := ParsePlan(plan.String())
		if err != nil {
			t.Fatalf("spec %q: round trip of %q rejected: %v", spec, plan.String(), err)
		}
		if len(plan2.Rules) != len(plan.Rules) {
			t.Fatalf("spec %q: round trip changed rule count %d -> %d", spec, len(plan.Rules), len(plan2.Rules))
		}
		for i := range plan.Rules {
			if plan.Rules[i] != plan2.Rules[i] {
				t.Fatalf("spec %q: round trip changed rule %d: %+v -> %+v", spec, i, plan.Rules[i], plan2.Rules[i])
			}
		}
		// Any accepted plan must drive an injector without panicking.
		in, err := NewInjector(plan, 1)
		if err != nil {
			t.Fatalf("spec %q: accepted plan rejected by injector: %v", spec, err)
		}
		for _, now := range []float64{0, 1, 5.05} {
			in.Reconfig(now)
			in.Observe(now, 100)
			in.Drift(now)
			in.Sustained(now)
			in.Board(now, 0)
		}
		in.DriftSpan(0, 5.05)
		in.SustainedSpan(0, 5.05)
		_ = strings.TrimSpace(plan.String())
	})
}
