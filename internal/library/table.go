package library

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Table is the serializable form of the library — "a table containing a
// list of pruned CNN models (rows) with their accuracy as well as the
// throughput values" (paper §IV-B1), extended with the resource and energy
// columns the Runtime Manager and the Fig. 5 plots consume.
type Table struct {
	Version        int        `json:"version"`
	ModelName      string     `json:"model"`
	Dataset        string     `json:"dataset"`
	ReconfigMS     float64    `json:"reconfig_ms"`
	FlexSwitchMS   float64    `json:"flex_switch_ms"`
	FlexibleLUT    int        `json:"flexible_lut"`
	FlexibleBRAM   int        `json:"flexible_bram"`
	FlexibleIdleW  float64    `json:"flexible_idle_w"`
	Rows           []TableRow `json:"rows"`
	DistinctModels int        `json:"distinct_models"`
}

// TableRow is one pruned version.
type TableRow struct {
	NominalRate   float64 `json:"rate"`
	EffectiveRate float64 `json:"effective_rate"`
	Channels      []int   `json:"channels"`
	Accuracy      float64 `json:"accuracy"`
	FixedFPS      float64 `json:"fixed_fps"`
	FlexFPS       float64 `json:"flex_fps"`
	FixedLUT      int     `json:"fixed_lut"`
	FixedBRAM     int     `json:"fixed_bram"`
	EnergyPerInfJ float64 `json:"energy_per_inf_j"`
	// FlexEnergyPerInfJ is the flexible accelerator's dynamic energy per
	// inference configured to this row's channels.
	FlexEnergyPerInfJ float64 `json:"flex_energy_per_inf_j"`
	FixedIdleW        float64 `json:"fixed_idle_w"`
}

const tableVersion = 1

// Table extracts the serializable table from a generated library.
func (l *Library) Table() *Table {
	t := &Table{
		Version:        tableVersion,
		ModelName:      l.ModelName,
		Dataset:        l.Dataset,
		ReconfigMS:     float64(l.ReconfigTime) / float64(time.Millisecond),
		FlexSwitchMS:   float64(l.FlexSwitchTime) / float64(time.Millisecond),
		FlexibleLUT:    l.Flexible.Res.LUT,
		FlexibleBRAM:   l.Flexible.Res.BRAM,
		FlexibleIdleW:  l.Flexible.IdlePower(),
		DistinctModels: l.DistinctVersions(),
	}
	for _, e := range l.Entries {
		t.Rows = append(t.Rows, TableRow{
			NominalRate:       e.NominalRate,
			EffectiveRate:     e.EffectiveRate,
			Channels:          append([]int(nil), e.Channels...),
			Accuracy:          e.Accuracy,
			FixedFPS:          e.FixedFPS,
			FlexFPS:           e.FlexFPS,
			FixedLUT:          e.Fixed.Res.LUT,
			FixedBRAM:         e.Fixed.Res.BRAM,
			EnergyPerInfJ:     e.FixedPower.TotalEnergyPerInference(),
			FlexEnergyPerInfJ: e.FlexPower.EnergyPerInfJ,
			FixedIdleW:        e.FixedPower.IdleW,
		})
	}
	return t
}

// SaveTable writes the library table as JSON.
func (l *Library) SaveTable(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.Table())
}

// Validate checks table invariants (mirrors Library.Validate on the
// data-only form).
func (t *Table) Validate() error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("library: empty table")
	}
	for i := 1; i < len(t.Rows); i++ {
		if t.Rows[i].NominalRate < t.Rows[i-1].NominalRate {
			return fmt.Errorf("library: table rates not ascending at row %d", i)
		}
		if t.Rows[i].Accuracy > t.Rows[i-1].Accuracy+1e-9 {
			return fmt.Errorf("library: table accuracy increases at row %d", i)
		}
	}
	return nil
}
