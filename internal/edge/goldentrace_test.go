package edge

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Regenerate the golden traces with:
//
//	go test ./internal/edge/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden trace files")

// renderGolden serializes a Result deterministically: final stats, the
// switch and fault timelines, and every 25th trace point, all at %.6g so
// the files stay stable across same-architecture runs and small enough to
// review.
func renderGolden(res *Result) string {
	var b strings.Builder
	g := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	s := res.RunStats
	g("# stats\n")
	g("arrived %.6g\nprocessed %.6g\ndropped %.6g\n", s.Arrived, s.Processed, s.Dropped)
	g("frameloss_pct %.6g\nqoe_pct %.6g\navg_accuracy %.6g\n", s.FrameLossPct, s.QoEPct, s.AvgAccuracy)
	g("avg_power_w %.6g\nenergy_j %.6g\n", s.AvgPowerW, s.EnergyJ)
	g("switches %d\nreconfigs %d\n", s.Switches, s.Reconfigs)
	g("# fault counts\n")
	g("reconfig_failures %d\nreconfig_stalls %d\nsensor_dropouts %d\n",
		s.Faults.ReconfigFailures, s.Faults.ReconfigStalls, s.Faults.SensorDropouts)
	g("sensor_spikes %d\naccuracy_drifts %d\ndegradations %d\n",
		s.Faults.SensorSpikes, s.Faults.AccuracyDrifts, s.Faults.Degradations)

	g("# switches\n")
	for _, sw := range res.Switches {
		g("%.6g %s reconf=%v\n", sw.Time, sw.Label, sw.Reconfigured)
	}
	g("# faults\n")
	for _, fe := range res.FaultEvents {
		g("%.6g %s %s\n", fe.Time, fe.Kind, fe.Detail)
	}
	g("# trace t in proc loss qoe acc power arr_cum proc_cum drop_cum\n")
	for i, tp := range res.Trace {
		if i%25 != 0 {
			continue
		}
		g("%.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g\n",
			tp.Time, tp.IncomingFPS, tp.ProcessedFPS, tp.LossPct, tp.QoEPct,
			tp.Accuracy, tp.PowerW, tp.ArrivedCum, tp.ProcessedCum, tp.DroppedCum)
	}
	return b.String()
}

// chaosPlan is the seeded fault plan of the golden chaos scenario (and the
// README example): a reconfiguration-failure window, mild stalls, and
// sensor/evaluator noise throughout.
func chaosPlan(t testing.TB) *fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan(
		"reconfig-fail:p=1,start=4,end=8;reconfig-stall:p=0.25;" +
			"sensor-dropout:p=0.1;sensor-spike:p=0.2,mag=0.4;accuracy-drift:p=0.05,mag=-0.03")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestGoldenTraces locks the Fig. 6 scenario traces (fault-free, AdaFlow
// controller) and one seeded chaos run against golden files in testdata/.
// A diff means simulation semantics changed: inspect it, then refresh with
// -update if intentional.
func TestGoldenTraces(t *testing.T) {
	lib := paperLib(t)
	cases := []struct {
		file  string
		scn   Scenario
		plan  *fault.Plan
		fseed int64
	}{
		{file: "scenario1.golden", scn: Scenario1()},
		{file: "scenario2.golden", scn: Scenario2()},
		{file: "scenario12.golden", scn: Scenario12()},
		{file: "scenario12_chaos.golden", scn: Scenario12(), plan: chaosPlan(t), fseed: 7},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			res, err := Run(tc.scn, adaflow(t, lib), SimConfig{
				Seed:        1,
				RecordTrace: true,
				FaultConfig: FaultConfig{Plan: tc.plan, Seed: tc.fseed},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.file, renderGolden(res))
		})
	}
}

// checkGolden compares got with testdata/file, or rewrites the file under
// -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n%s", file, diffLines(string(want), got))
	}
}

// catTrace runs run with a tracer recording every event of category cat
// and returns the JSONL rendering. Decision and adaptation events are
// never sampled, so such a trace is sampling-independent.
func catTrace(t *testing.T, cat obs.Category, run func(RunOption) (*Result, error)) (*Result, string) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	res, err := run(WithTracer(obs.New(obs.Filter(sink, func(ev obs.Event) bool { return ev.Cat == cat }))))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// runModes are the two serving models, as SimConfig.EventLevel values, for
// tests that check both.
var runModes = []struct {
	name       string
	eventLevel bool
}{{"fluid", false}, {"event-level", true}}

// diffLines reports the first few differing lines between two renderings.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, lw, lg)
			if shown++; shown >= 5 {
				b.WriteString("  ...\n")
				break
			}
		}
	}
	return b.String()
}
