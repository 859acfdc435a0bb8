package experiments

import (
	"fmt"
	"io"

	"repro/internal/synth"
)

// Fig5aRow is one accelerator's resource usage in Figure 5(a).
type Fig5aRow struct {
	Label string
	Rate  float64 // nominal pruning rate; -1 for FINN/Flexible
	Res   synth.Resources
	// LUTvsFINN is this accelerator's LUT count relative to original FINN.
	LUTvsFINN float64
}

// Fig5aResult is the resource comparison for CNVW2A2 on CIFAR-10.
type Fig5aResult struct {
	Pair Pair
	Rows []Fig5aRow
	// PaperFlexibleLUTRatio and PaperFixedReduction* carry the reference
	// values from §VI-A for side-by-side reporting.
	PaperFlexibleLUTRatio  float64
	PaperFixedReduction5   float64
	PaperFixedReduction85  float64
	MeasuredFlexLUTRatio   float64
	MeasuredFixedRed5Pct   float64
	MeasuredFixedRed85Pct  float64
	FlexibleBRAMNoIncrease bool
}

// Fig5a regenerates Figure 5(a): FPGA resources for FINN, Flexible- and
// Fixed-Pruning accelerators.
func Fig5a() (*Fig5aResult, error) {
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	res := &Fig5aResult{
		Pair:                  p,
		PaperFlexibleLUTRatio: 1.92,
		PaperFixedReduction5:  0.015,
		PaperFixedReduction85: 0.462,
	}
	base := lib.Baseline.Res
	res.Rows = append(res.Rows, Fig5aRow{Label: "Original FINN", Rate: -1, Res: base, LUTvsFINN: 1})
	res.Rows = append(res.Rows, Fig5aRow{
		Label: "Flexible-Pruning", Rate: -1, Res: lib.Flexible.Res,
		LUTvsFINN: float64(lib.Flexible.Res.LUT) / float64(base.LUT),
	})
	for _, e := range lib.Entries {
		if e.NominalRate == 0 {
			continue
		}
		res.Rows = append(res.Rows, Fig5aRow{
			Label:     fmt.Sprintf("Fixed-Pruning %.0f%%", e.NominalRate*100),
			Rate:      e.NominalRate,
			Res:       e.Fixed.Res,
			LUTvsFINN: float64(e.Fixed.Res.LUT) / float64(base.LUT),
		})
	}
	res.MeasuredFlexLUTRatio = float64(lib.Flexible.Res.LUT) / float64(base.LUT)
	for _, e := range lib.Entries {
		if e.NominalRate == 0.05 {
			res.MeasuredFixedRed5Pct = 1 - float64(e.Fixed.Res.LUT)/float64(base.LUT)
		}
		if e.NominalRate == 0.85 {
			res.MeasuredFixedRed85Pct = 1 - float64(e.Fixed.Res.LUT)/float64(base.LUT)
		}
	}
	res.FlexibleBRAMNoIncrease = lib.Flexible.Res.BRAM <= base.BRAM
	return res, nil
}

// WriteText renders the resource table.
func (r *Fig5aResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 5(a): FPGA resources — %s on ZCU104\n", r.Pair)
	fmt.Fprintf(w, "%-22s %-9s %-9s %-6s %-5s %-9s\n", "accelerator", "LUT", "FF", "BRAM", "DSP", "LUT/FINN")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %-9d %-9d %-6d %-5d %-9.3f\n",
			row.Label, row.Res.LUT, row.Res.FF, row.Res.BRAM, row.Res.DSP, row.LUTvsFINN)
	}
	fmt.Fprintf(w, "flexible LUT ratio: measured %.2fx (paper %.2fx); fixed LUT reduction: %.1f%%@5%% / %.1f%%@85%% (paper %.1f%% / %.1f%%); flexible BRAM increase: %v (paper: none)\n",
		r.MeasuredFlexLUTRatio, r.PaperFlexibleLUTRatio,
		r.MeasuredFixedRed5Pct*100, r.MeasuredFixedRed85Pct*100,
		r.PaperFixedReduction5*100, r.PaperFixedReduction85*100,
		!r.FlexibleBRAMNoIncrease)
}

// Fig5bcPoint is one design point of Figure 5(b)/(c): accuracy vs energy
// per inference.
type Fig5bcPoint struct {
	NominalRate  float64
	Accuracy     float64
	FixedEnergyJ float64
	FlexEnergyJ  float64
}

// Fig5bcResult is the energy/accuracy design space for one dataset.
type Fig5bcResult struct {
	Pair   Pair
	Points []Fig5bcPoint
	// Measured/paper anchor: energy reduction at the 25 % pruning point.
	MeasuredFixedRed25 float64
	MeasuredFlexRed25  float64
	PaperFixedRed25    float64
	PaperFlexRed25     float64
}

// Fig5bc regenerates Figure 5(b) (dataset "cifar10") or 5(c) ("gtsrb")
// for CNVW2A2.
func Fig5bc(dataset string) (*Fig5bcResult, error) {
	var pair Pair
	found := false
	for _, p := range Pairs {
		if p.ModelName == "CNVW2A2" && p.Dataset == dataset {
			pair, found = p, true
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: no CNVW2A2 pair for dataset %q", dataset)
	}
	lib, err := Lib(pair)
	if err != nil {
		return nil, err
	}
	res := &Fig5bcResult{Pair: pair, PaperFixedRed25: 1.64, PaperFlexRed25: 1.38}

	// Energy per point from the library's tabulated power curves, so the
	// flexible figure needs no reconfiguration of the shared flexible
	// dataflow.
	baseE := lib.Baseline.TotalEnergyPerInference()
	for i := range lib.Entries {
		e := &lib.Entries[i]
		pt := Fig5bcPoint{
			NominalRate:  e.NominalRate,
			Accuracy:     e.Accuracy,
			FixedEnergyJ: e.FixedPower.TotalEnergyPerInference(),
			FlexEnergyJ:  e.FlexPower.TotalEnergyPerInference(),
		}
		res.Points = append(res.Points, pt)
		if e.NominalRate == 0.25 {
			res.MeasuredFixedRed25 = baseE / pt.FixedEnergyJ
			res.MeasuredFlexRed25 = baseE / pt.FlexEnergyJ
		}
	}
	return res, nil
}

// WriteText renders the design-space table.
func (r *Fig5bcResult) WriteText(w io.Writer) {
	sub := "(b)"
	if r.Pair.Dataset == "gtsrb" {
		sub = "(c)"
	}
	fmt.Fprintf(w, "Figure 5%s: accuracy vs energy per inference — %s\n", sub, r.Pair)
	fmt.Fprintf(w, "%-8s %-10s %-14s %-14s\n", "rate", "accuracy%", "fixed mJ/inf", "flex mJ/inf")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-8.2f %-10.2f %-14.3f %-14.3f\n",
			pt.NominalRate, pt.Accuracy*100, pt.FixedEnergyJ*1e3, pt.FlexEnergyJ*1e3)
	}
	fmt.Fprintf(w, "energy reduction at 25%% pruning vs FINN: fixed %.2fx (paper %.2fx), flexible %.2fx (paper %.2fx)\n",
		r.MeasuredFixedRed25, r.PaperFixedRed25, r.MeasuredFlexRed25, r.PaperFlexRed25)
}
