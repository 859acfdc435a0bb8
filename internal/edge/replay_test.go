package edge

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// captureRateTrace records the rate trace a run of scn with the given
// seed would see: the initial draw at t=0 and one sample per redraw
// boundary before the scenario end, mirroring the run loops' redraw
// schedule exactly.
func captureRateTrace(scn Scenario, seed int64) (*RateTrace, error) {
	wl, err := NewWorkload(scn, sim.RNG(seed, "workload/"+scn.Name))
	if err != nil {
		return nil, err
	}
	tr := &RateTrace{
		Name:     scn.Name,
		Duration: scn.Duration,
		Devices:  scn.Devices, PerDeviceFPS: scn.PerDeviceFPS,
		Times: []float64{0},
		Rates: []float64{wl.Rate()},
	}
	for t := wl.NextBoundary(0); t < scn.Duration; t = wl.NextBoundary(t) {
		tr.Times = append(tr.Times, t)
		tr.Rates = append(tr.Rates, wl.Redraw(t))
	}
	return tr, nil
}

// writeJSONL writes tr in the JSONL wire format ReadRateTrace reads: a
// header line {"name",...,"samples"} followed by one {"t","rate"} line per
// sample.
func writeJSONL(w io.Writer, tr *RateTrace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{
		Name: tr.Name, Duration: tr.Duration,
		Devices: tr.Devices, FPS: tr.PerDeviceFPS,
		Samples: len(tr.Times),
	}); err != nil {
		return err
	}
	for i := range tr.Times {
		if err := enc.Encode(traceSample{T: tr.Times[i], Rate: tr.Rates[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestRateTraceJSONLRoundTrip: write → read is lossless (float64 values
// survive the JSONL encoding exactly).
func TestRateTraceJSONLRoundTrip(t *testing.T) {
	tr, err := captureRateTrace(Scenario12(), 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("JSONL round trip changed the trace:\n  %+v\n  %+v", tr, back)
	}
}

// TestReplayRoundTrip is the tentpole's replay contract: record a run's
// rate trace to JSONL, replay it through the grammar's replay:file=
// primitive, and the replayed run is bit-identical — same RunStats, same
// per-step curves and switch timeline, same decision trace — in both
// simulation modes.
func TestReplayRoundTrip(t *testing.T) {
	lib := paperLib(t)
	const seed = 9
	scn := Scenario12()

	tr, err := captureRateTrace(scn, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSONL(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := ParseScenario(fmt.Sprintf("replay:file=%s", path))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Name != scn.Name {
		t.Fatalf("replay renamed the scenario %q -> %q (RNG stream labels would change)", scn.Name, replayed.Name)
	}

	for _, mode := range runModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(s Scenario) (*Result, string) {
				return catTrace(t, obs.ManagerCat, func(o RunOption) (*Result, error) {
					return Run(s, adaflow(t, lib), SimConfig{Seed: seed, RecordTrace: true, EventLevel: mode.eventLevel}, o)
				})
			}
			orig, origDec := run(scn)
			rep, repDec := run(replayed)
			if !reflect.DeepEqual(orig.RunStats, rep.RunStats) {
				t.Errorf("replay changed RunStats:\norig   %+v\nreplay %+v", orig.RunStats, rep.RunStats)
			}
			if !reflect.DeepEqual(orig.Trace, rep.Trace) {
				t.Errorf("replay changed the per-step trace")
			}
			if !reflect.DeepEqual(orig.Switches, rep.Switches) {
				t.Errorf("replay changed the switch timeline")
			}
			if origDec != repDec {
				t.Errorf("replay changed the decision trace:\n%s", diffLines(origDec, repDec))
			}
		})
	}
}
