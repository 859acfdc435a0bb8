package library

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/model"
)

// TestGenerateDeterministicAcrossWorkers is the contract the parallel
// sweep must keep: the serialized library table is byte-identical whether
// generation ran on 1, 2, or NumCPU workers. make test-race runs this
// under the race detector, which also audits the fan-out for unsynchronized
// sharing.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	counts := []int{1, 2, runtime.NumCPU()}
	var ref []byte
	for _, workers := range counts {
		m, err := model.CNVW2A2("cifar10", 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
		if err != nil {
			t.Fatal(err)
		}
		lib, err := Generate(m, Config{Evaluator: ev, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := lib.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if lib.Stats.Workers != workers || lib.Stats.Wall <= 0 {
			t.Fatalf("workers=%d: stats not recorded: %+v", workers, lib.Stats)
		}
		if lib.Stats.DistinctSynth+lib.Stats.SynthReused != len(lib.Entries) {
			t.Fatalf("workers=%d: stats don't cover the sweep: %+v", workers, lib.Stats)
		}
		if lib.Stats.DistinctSynth != lib.DistinctVersions() {
			t.Fatalf("workers=%d: DistinctSynth=%d but library has %d distinct versions",
				workers, lib.Stats.DistinctSynth, lib.DistinctVersions())
		}
		var buf bytes.Buffer
		if err := lib.SaveTable(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d: table bytes diverged from workers=%d", workers, counts[0])
		}
	}
}

// TestGenerateSharesSynthesisAcrossDuplicateRates checks the memo: rates
// that round to the same channel configuration must share one synthesized
// accelerator rather than re-running Map+Synthesize.
func TestGenerateSharesSynthesisAcrossDuplicateRates(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Generate(m, Config{Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*Entry{}
	shared := 0
	for i := range lib.Entries {
		e := &lib.Entries[i]
		k := channelsKey(e.Channels)
		if first, ok := byKey[k]; ok {
			shared++
			if first.Fixed != e.Fixed {
				t.Fatalf("rates %v and %v share channels %v but not the synthesized accelerator",
					first.NominalRate, e.NominalRate, e.Channels)
			}
			if first.FixedFPS != e.FixedFPS || first.FlexFPS != e.FlexFPS ||
				first.FlexEnergyPerInfJ != e.FlexEnergyPerInfJ ||
				first.FixedPower != e.FixedPower || first.FlexPower != e.FlexPower {
				t.Fatalf("duplicate-shape rates %v and %v disagree on derived values",
					first.NominalRate, e.NominalRate)
			}
			continue
		}
		byKey[k] = e
	}
	if shared == 0 {
		t.Skip("paper sweep produced no duplicate shapes on this model")
	}
	if lib.Stats.SynthReused != shared {
		t.Fatalf("Stats.SynthReused = %d, expected %d", lib.Stats.SynthReused, shared)
	}
}

// The tabulated power curves must match a measurement of the synthesized
// accelerators: the fixed one as built, the flexible one configured to the
// entry's channels.
func TestFlexEnergyMatchesReconfiguredMeasurement(t *testing.T) {
	lib := paperLibrary(t)
	df := lib.Flexible.Dataflow
	for _, e := range lib.Entries {
		if err := df.SetChannels(e.Channels); err != nil {
			t.Fatal(err)
		}
		want := lib.Flexible.Curve()
		if err := df.SetChannels(df.WorstChannels); err != nil {
			t.Fatal(err)
		}
		if e.FlexPower != want || e.FlexEnergyPerInfJ != want.EnergyPerInfJ || e.FlexFPS != want.CapFPS {
			t.Fatalf("rate %v: flexible curve %+v (energy %v, fps %v), reconfigured measurement %+v",
				e.NominalRate, e.FlexPower, e.FlexEnergyPerInfJ, e.FlexFPS, want)
		}
		if fixed := e.Fixed.Curve(); e.FixedPower != fixed || e.FixedFPS != fixed.CapFPS {
			t.Fatalf("rate %v: fixed curve %+v (fps %v), synthesized %+v",
				e.NominalRate, e.FixedPower, e.FixedFPS, fixed)
		}
	}
}
