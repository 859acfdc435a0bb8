package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// csvWrite writes rows, reporting the first error.
func csvWrite(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteCSV exports the Fig. 1(a) sweep.
func (r *Fig1aResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{f(p.NominalRate), f(p.EffectiveRate), f(p.Accuracy), f(p.FPS)})
	}
	return csvWrite(w, []string{"nominal_rate", "effective_rate", "accuracy", "fps"}, rows)
}

// WriteCSV exports the Fig. 1(b) summary (one row per server line).
func (r *Fig1bResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Series))
	for _, s := range r.Series {
		rows = append(rows, []string{s.Label, f(s.ReconfigMS), f(s.FrameLossPct)})
	}
	return csvWrite(w, []string{"server", "reconfig_ms", "frame_loss_pct"}, rows)
}

// WriteCSV exports the Fig. 5(a) resource table.
func (r *Fig5aResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label, f(row.Rate),
			strconv.Itoa(row.Res.LUT), strconv.Itoa(row.Res.FF),
			strconv.Itoa(row.Res.BRAM), strconv.Itoa(row.Res.DSP),
			f(row.LUTvsFINN),
		})
	}
	return csvWrite(w, []string{"accelerator", "rate", "lut", "ff", "bram", "dsp", "lut_vs_finn"}, rows)
}

// WriteCSV exports the Fig. 5(b)/(c) design space.
func (r *Fig5bcResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{f(p.NominalRate), f(p.Accuracy), f(p.FixedEnergyJ), f(p.FlexEnergyJ)})
	}
	return csvWrite(w, []string{"rate", "accuracy", "fixed_energy_j", "flex_energy_j"}, rows)
}

// WriteCSV exports Table I.
func (r *Table1Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Pair.String(), row.Scenario,
			f(row.AdaFlow.FrameLossPct), f(row.FINN.FrameLossPct),
			f(row.AdaFlow.QoEPct), f(row.FINN.QoEPct),
			f(row.AdaFlow.AvgPowerW), f(row.FINN.AvgPowerW),
			f(row.PowerEffRatio),
		})
	}
	return csvWrite(w, []string{
		"pair", "scenario", "ada_loss_pct", "finn_loss_pct",
		"ada_qoe_pct", "finn_qoe_pct", "ada_power_w", "finn_power_w", "power_eff_ratio",
	}, rows)
}

// WriteCSV exports the Fig. 6 per-step traces of every series, long-form.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, s := range r.Series {
		for _, p := range s.Trace {
			rows = append(rows, []string{
				s.Label, s.Scenario, f(p.Time), f(p.LossPct), f(p.QoEPct), f(p.PowerW),
			})
		}
	}
	return csvWrite(w, []string{"series", "scenario", "time_s", "loss_pct", "qoe_pct", "power_w"}, rows)
}
