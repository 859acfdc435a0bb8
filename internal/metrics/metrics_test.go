package metrics

import (
	"math"
	"testing"
)

func TestAccumulatorFinalize(t *testing.T) {
	var a Accumulator
	// 100 frames arrive, 80 processed at accuracy 0.9, 20 dropped, 50 J
	// over 10 s.
	a.Add(100, 80, 20, 0.9, 50, 10)
	s := a.Finalize()
	if s.FrameLossPct != 20 {
		t.Fatalf("loss = %v", s.FrameLossPct)
	}
	if math.Abs(s.AvgAccuracy-0.9) > 1e-9 {
		t.Fatalf("acc = %v", s.AvgAccuracy)
	}
	if math.Abs(s.QoEPct-0.9*0.8*100) > 1e-9 {
		t.Fatalf("QoE = %v, want 72", s.QoEPct)
	}
	if s.AvgPowerW != 5 {
		t.Fatalf("power = %v", s.AvgPowerW)
	}
	if math.Abs(s.EnergyPerInf-50.0/80) > 1e-12 {
		t.Fatalf("E/inf = %v", s.EnergyPerInf)
	}
	if math.Abs(s.PowerEff-80.0/50) > 1e-12 {
		t.Fatalf("eff = %v", s.PowerEff)
	}
}

func TestAccumulatorMixedAccuracy(t *testing.T) {
	var a Accumulator
	a.Add(50, 50, 0, 1.0, 10, 5)
	a.Add(50, 50, 0, 0.5, 10, 5)
	s := a.Finalize()
	if math.Abs(s.AvgAccuracy-0.75) > 1e-9 {
		t.Fatalf("mixed acc = %v", s.AvgAccuracy)
	}
}

func TestFinalizeEmptyRunSafe(t *testing.T) {
	var a Accumulator
	s := a.Finalize()
	if s.FrameLossPct != 0 || s.QoEPct != 0 || s.PowerEff != 0 {
		t.Fatalf("empty run stats not zero: %+v", s)
	}
}

func TestMean(t *testing.T) {
	runs := []RunStats{
		{FrameLossPct: 10, QoEPct: 70, AvgPowerW: 1.0, Switches: 3, Reconfigs: 1},
		{FrameLossPct: 20, QoEPct: 80, AvgPowerW: 1.2, Switches: 5, Reconfigs: 3},
	}
	m, err := Mean(runs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.FrameLossPct-15) > 1e-9 || math.Abs(m.QoEPct-75) > 1e-9 {
		t.Fatalf("mean = %+v", m)
	}
	if m.Switches != 4 || m.Reconfigs != 2 {
		t.Fatalf("counts = %d/%d", m.Switches, m.Reconfigs)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("empty aggregate accepted")
	}
}

func TestQueueAndLatency(t *testing.T) {
	var a Accumulator
	// 10 s at 100 processed FPS with a steady queue of 20 frames.
	a.Add(1000, 1000, 0, 1, 10, 10)
	a.AddQueue(20, 10)
	s := a.Finalize()
	if math.Abs(s.AvgQueueFrames-20) > 1e-9 {
		t.Fatalf("avg queue = %v", s.AvgQueueFrames)
	}
	// Little: W = L/λ = 20/100 = 0.2 s.
	if math.Abs(s.AvgLatencyMS-200) > 1e-6 {
		t.Fatalf("latency = %v ms", s.AvgLatencyMS)
	}
	if s.MaxQueueFrames != 20 {
		t.Fatalf("max queue = %v", s.MaxQueueFrames)
	}
}

func TestMeanCarriesLatency(t *testing.T) {
	m, err := Mean([]RunStats{
		{AvgQueueFrames: 10, AvgLatencyMS: 100, MaxQueueFrames: 16},
		{AvgQueueFrames: 20, AvgLatencyMS: 300, MaxQueueFrames: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgQueueFrames != 15 || m.AvgLatencyMS != 200 {
		t.Fatalf("mean latency fields: %+v", m)
	}
	if m.MaxQueueFrames != 16 {
		t.Fatalf("max of max = %v", m.MaxQueueFrames)
	}
}

// TestAccumulatorFaultCounters checks fault counts survive Finalize
// untouched and average (with rounding) through Mean.
func TestAccumulatorFaultCounters(t *testing.T) {
	var a Accumulator
	a.Add(10, 10, 0, 1, 1, 1)
	a.Faults = FaultStats{
		ReconfigFailures: 3,
		ReconfigStalls:   2,
		SensorDropouts:   5,
		SensorSpikes:     7,
		AccuracyDrifts:   11,
		Degradations:     1,
	}
	s := a.Finalize()
	if s.Faults != a.Faults {
		t.Fatalf("Finalize altered fault counts: %+v != %+v", s.Faults, a.Faults)
	}

	other := s
	other.Faults = FaultStats{} // a clean run
	m, err := Mean([]RunStats{s, other})
	if err != nil {
		t.Fatal(err)
	}
	// Counter means round half away from zero: 3/2 → 2, 5/2 → 3, 1/2 → 1.
	want := FaultStats{
		ReconfigFailures: 2,
		ReconfigStalls:   1,
		SensorDropouts:   3,
		SensorSpikes:     4,
		AccuracyDrifts:   6,
		Degradations:     1,
	}
	if m.Faults != want {
		t.Fatalf("Mean faults = %+v, want %+v", m.Faults, want)
	}
}

// TestMeanHeterogeneousRuns averages runs of very different lengths and
// magnitudes: every ratio field must average the per-run ratios (not
// recompute from pooled totals), counters must round, and the queue peak
// must take the max.
func TestMeanHeterogeneousRuns(t *testing.T) {
	// A short run: 10 frames, lossless, low power.
	var short Accumulator
	short.Add(10, 10, 0, 0.9, 5, 1)
	short.AddQueue(1, 1)
	short.Switches = 1
	// A long run: 1000 frames, 10% loss, high power.
	var long Accumulator
	long.Add(1000, 900, 100, 0.8, 450, 100)
	long.AddQueue(9, 100)
	long.Switches = 4

	a, b := short.Finalize(), long.Finalize()
	m, err := Mean([]RunStats{a, b})
	if err != nil {
		t.Fatal(err)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("Arrived", m.Arrived, (10+1000)/2.0)
	approx("FrameLossPct", m.FrameLossPct, (a.FrameLossPct+b.FrameLossPct)/2)
	// Per-run averaging weights the short run equally with the long one —
	// that is the paper's "average of N runs", not a pooled-frames mean.
	if pooled := 100 * 100.0 / 1010.0; math.Abs(m.FrameLossPct-pooled) < 1e-9 {
		t.Errorf("Mean pooled frames instead of averaging per-run loss")
	}
	approx("AvgPowerW", m.AvgPowerW, (a.AvgPowerW+b.AvgPowerW)/2)
	approx("AvgQueueFrames", m.AvgQueueFrames, (a.AvgQueueFrames+b.AvgQueueFrames)/2)
	if m.MaxQueueFrames != 9 {
		t.Errorf("MaxQueueFrames = %v, want the max 9", m.MaxQueueFrames)
	}
	if m.Switches != 3 { // (1+4)/2 rounded
		t.Errorf("Switches = %d, want 3", m.Switches)
	}
}
