package synth

import (
	"testing"

	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/prune"
)

func cnv(t *testing.T) *model.Model {
	t.Helper()
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func synthFor(t *testing.T, m *model.Model, flexible bool) *Accelerator {
	t.Helper()
	df, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{Flexible: flexible})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Synthesize(df, ZCU104)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func prunedCNV(t *testing.T, m *model.Model, rate float64) *model.Model {
	t.Helper()
	fold := finn.DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	pr, _, err := prune.Shrink(m, rate, gs)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestReconfigTimeNearPaper(t *testing.T) {
	rt := ZCU104.ReconfigTime().Seconds()
	// Paper: five reconfigurations ≈ 725 ms → ≈145 ms each.
	if rt < 0.10 || rt > 0.20 {
		t.Fatalf("reconfig time %.3fs, want ≈0.145s", rt)
	}
}

// TestFlexibleLUTRatio pins the paper's headline resource result:
// Flexible-Pruning ≈ 1.92× the LUTs of original FINN.
func TestFlexibleLUTRatio(t *testing.T) {
	m := cnv(t)
	fixed := synthFor(t, m, false)
	flex := synthFor(t, m, true)
	ratio := float64(flex.Res.LUT) / float64(fixed.Res.LUT)
	if ratio < 1.75 || ratio > 2.05 {
		t.Fatalf("flexible LUT ratio = %.3f, want ≈1.92", ratio)
	}
}

// TestFlexibleNoBRAMIncrease pins the paper's claim that Flexible-Pruning
// shows no BRAM increase over FINN.
func TestFlexibleNoBRAMIncrease(t *testing.T) {
	m := cnv(t)
	fixed := synthFor(t, m, false)
	flex := synthFor(t, m, true)
	if flex.Res.BRAM > fixed.Res.BRAM {
		t.Fatalf("flexible BRAM %d > FINN %d", flex.Res.BRAM, fixed.Res.BRAM)
	}
}

// TestFixedPruningLUTReductions pins the paper's range: −1.5 % at 5 %
// pruning up to −46.2 % at 85 % pruning (we allow generous bands; the
// drivers are structural, not fitted per-point).
func TestFixedPruningLUTReductions(t *testing.T) {
	m := cnv(t)
	base := synthFor(t, m, false)
	small := synthFor(t, prunedCNV(t, m, 0.05), false)
	large := synthFor(t, prunedCNV(t, m, 0.85), false)
	redSmall := 1 - float64(small.Res.LUT)/float64(base.Res.LUT)
	redLarge := 1 - float64(large.Res.LUT)/float64(base.Res.LUT)
	if redSmall < 0.0 || redSmall > 0.06 {
		t.Fatalf("5%% prune LUT reduction = %.3f, want ≈0.015", redSmall)
	}
	if redLarge < 0.35 || redLarge > 0.55 {
		t.Fatalf("85%% prune LUT reduction = %.3f, want ≈0.46", redLarge)
	}
	if redLarge <= redSmall {
		t.Fatal("LUT reduction not monotone in pruning rate")
	}
}

// TestBaselinePowerNearPaper pins the busy CNVW2A2 baseline near the
// paper's 1.07 W.
func TestBaselinePowerNearPaper(t *testing.T) {
	m := cnv(t)
	acc := synthFor(t, m, false)
	p := powerAt(acc, acc.Dataflow.FPS())
	if p < 0.95 || p > 1.20 {
		t.Fatalf("busy baseline power = %.3f W, want ≈1.07", p)
	}
}

// TestEnergyReductionAt25Percent pins Fig. 5(b): at 25 % pruning the Fixed
// accelerator reduces energy/inference ≈1.64×, the Flexible one ≈1.38×,
// relative to original FINN.
func TestEnergyReductionAt25Percent(t *testing.T) {
	m := cnv(t)
	base := synthFor(t, m, false)
	pr := prunedCNV(t, m, 0.25)

	fixed := synthFor(t, pr, false)

	flexDF, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := flexDF.SetChannels(pr.ConvChannels()); err != nil {
		t.Fatal(err)
	}
	flex, err := Synthesize(flexDF, ZCU104)
	if err != nil {
		t.Fatal(err)
	}

	e0 := base.TotalEnergyPerInference()
	redFixed := e0 / fixed.TotalEnergyPerInference()
	redFlex := e0 / flex.TotalEnergyPerInference()
	if redFixed < 1.4 || redFixed > 1.9 {
		t.Fatalf("fixed 25%% energy reduction = %.2f, want ≈1.64", redFixed)
	}
	if redFlex < 1.2 || redFlex > 1.6 {
		t.Fatalf("flex 25%% energy reduction = %.2f, want ≈1.38", redFlex)
	}
	if redFixed <= redFlex {
		t.Fatal("fixed must be more energy-efficient than flexible")
	}
}

func TestPowerMonotoneInLoad(t *testing.T) {
	m := cnv(t)
	acc := synthFor(t, m, false)
	if powerAt(acc, 100) >= powerAt(acc, 400) {
		t.Fatal("power not increasing with load")
	}
	if powerAt(acc, -5) != acc.IdlePower() {
		t.Fatal("negative load not clamped")
	}
	// Above capacity clamps.
	cap := acc.Dataflow.FPS()
	if powerAt(acc, cap*10) != powerAt(acc, cap) {
		t.Fatal("load above capacity not clamped")
	}
}

func TestW1A2CheaperThanW2A2(t *testing.T) {
	m2 := cnv(t)
	m1, err := model.CNVW1A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2 := synthFor(t, m2, false)
	a1 := synthFor(t, m1, false)
	if powerAt(a1, a1.Dataflow.FPS()) >= powerAt(a2, a2.Dataflow.FPS()) {
		t.Fatal("W1A2 not cheaper than W2A2")
	}
	if a1.Res.LUT >= a2.Res.LUT {
		t.Fatal("W1A2 should use fewer LUTs")
	}
}

func TestFitsDevice(t *testing.T) {
	m := cnv(t)
	flex := synthFor(t, m, true)
	if !ZCU104.Fits(flex.Res) {
		t.Fatalf("flexible CNV does not fit ZCU104: %+v", flex.Res)
	}
	small := Device{Name: "small", Resources: Resources{LUT: 100, FF: 100, BRAM: 1, DSP: 1}}
	df, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(df, small); err == nil {
		t.Fatal("oversized design accepted on tiny device")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(nil, ZCU104); err == nil {
		t.Fatal("nil dataflow accepted")
	}
}

// utilization returns each resource of acc as a fraction of its device.
func utilization(acc *Accelerator) map[string]float64 {
	return map[string]float64{
		"LUT":  float64(acc.Res.LUT) / float64(acc.Device.LUT),
		"FF":   float64(acc.Res.FF) / float64(acc.Device.FF),
		"BRAM": float64(acc.Res.BRAM) / float64(acc.Device.BRAM),
		"DSP":  float64(acc.Res.DSP) / float64(acc.Device.DSP),
	}
}

func TestUtilizationFractions(t *testing.T) {
	m := cnv(t)
	for k, v := range utilization(synthFor(t, m, false)) {
		if v < 0 || v > 1 {
			t.Fatalf("utilization %s = %v out of [0,1]", k, v)
		}
	}
}

// TestBRAMIsLimitingFactor pins the paper's observation that BRAM "is
// often the limiting factor for FPGA-based CNN accelerators — i.e., the
// resource with the highest usage" (§VI-A) — for both FINN and the
// Flexible accelerator.
func TestBRAMIsLimitingFactor(t *testing.T) {
	m := cnv(t)
	for _, flexible := range []bool{false, true} {
		u := utilization(synthFor(t, m, flexible))
		for k, v := range u {
			if k != "BRAM" && v > u["BRAM"] {
				t.Errorf("flexible=%v: %s utilization %.3f exceeds BRAM %.3f", flexible, k, v, u["BRAM"])
			}
		}
	}
}

// powerAt returns the accelerator's total power in watts while it
// processes the given frame rate: its power curve at its current channel
// configuration.
func powerAt(a *Accelerator, processedFPS float64) float64 {
	c := a.Curve()
	return c.At(processedFPS)
}
