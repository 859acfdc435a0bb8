package edge

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/fault"
	"repro/internal/obs"
)

// maxPendingEvents bounds the DES engine's peak heap occupancy (the
// max_heap of the sim/run trace summary, canceled entries included) on
// every served run below: the capacity sim.NewEngine preallocates.
// Measured 4 in every mode; margin 4. A run that scheduled its frames or
// accounting steps up front would hold hundreds.
const maxPendingEvents = 8

// TestServedRunsKeepFewEventsPending pins the traffic the engine's
// binary heap was chosen for (DESIGN.md, "Event queue"): event-level
// runs with Poisson arrivals under a deadline at batch 1 and 8, and
// fluid runs with adaptation and faults, keep a handful of events
// pending over every named scenario.
func TestServedRunsKeepFewEventsPending(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan("drift-sustained:p=1,start=5,mag=-0.15;reconfig-fail:p=0.3,start=2,end=20")
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		cfg  SimConfig
	}{
		{"event batch=1", SimConfig{
			EventLevel:      true,
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 1},
			PoissonArrivals: true,
		}},
		{"event batch=8", SimConfig{
			EventLevel:      true,
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 8},
			PoissonArrivals: true,
		}},
		{"fluid", SimConfig{
			FaultConfig: FaultConfig{Plan: plan, Seed: 1},
			Adapt:       adapt.Config{Enabled: true},
		}},
	}
	for _, m := range modes {
		peak := 0
		for _, name := range namedNames() {
			scn, err := NamedScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			ring := obs.NewRing(64)
			keep := func(ev obs.Event) bool { return ev.Cat == obs.SimCat && ev.Name == "run" }
			cfg := m.cfg
			cfg.Seed = 1
			if _, err := Run(scn, adaflow(t, lib), cfg, WithTracer(obs.New(obs.Filter(ring, keep)))); err != nil {
				t.Fatal(err)
			}
			evs := ring.Events()
			if len(evs) == 0 {
				t.Fatalf("%s %s: no sim/run summary traced", m.name, name)
			}
			for _, ev := range evs {
				a, ok := ev.Attr("max_heap")
				if !ok {
					t.Fatalf("%s %s: sim/run summary without max_heap", m.name, name)
				}
				if n := int(a.Float()); n > maxPendingEvents {
					t.Errorf("%s %s: max_heap %d, bound %d", m.name, name, n, maxPendingEvents)
				}
				peak = max(peak, int(a.Float()))
			}
		}
		t.Logf("%s: peak max_heap %d over %d scenarios", m.name, peak, len(namedNames()))
	}
}
