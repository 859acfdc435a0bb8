package library

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/train"
)

func paperLibrary(t *testing.T) *Library {
	t.Helper()
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
	return lib
}

func TestPaperRates(t *testing.T) {
	rs := PaperRates()
	if len(rs) != 18 {
		t.Fatalf("rates = %d, want 18", len(rs))
	}
	if rs[0] != 0 || rs[17] != 0.85 {
		t.Fatalf("range = [%v, %v]", rs[0], rs[17])
	}
}

func TestGenerateValidation(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(m, Config{}); err == nil {
		t.Fatal("missing evaluator accepted")
	}
}

// TestGenerateRejectsBadRates: a NaN or infinite rate fails up front with
// an error naming it, and any other rate outside [0, 1) fails at planning
// with the rate named, on the shape-only and the weight path alike.
func TestGenerateRejectsBadRates(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rates []float64
		want  string
	}{
		{[]float64{math.NaN()}, "library: rate NaN is not a number in [0,1)"},
		{[]float64{0, math.NaN()}, "library: rate NaN is not a number in [0,1)"},
		{[]float64{0.5, math.Inf(1)}, "library: rate +Inf is not a number in [0,1)"},
		{[]float64{math.Inf(-1), 0.25}, "library: rate -Inf is not a number in [0,1)"},
		{[]float64{0, 1}, "library: rate 1: prune: rate 1 out of [0,1)"},
		{[]float64{-0.5, 0.5}, "library: rate -0.5: prune: rate -0.5 out of [0,1)"},
	} {
		for _, keep := range []bool{false, true} {
			_, err := Generate(m, Config{Rates: tc.rates, Evaluator: ev, KeepModels: keep})
			if fmt.Sprint(err) != tc.want {
				t.Errorf("rates %v (KeepModels %v): err = %v, want %q", tc.rates, keep, err, tc.want)
			}
		}
	}
}

// TestGeneratePaperLibrary exercises the full design-time flow at paper
// scale: 18 pruned versions, one flexible accelerator, library invariants.
func TestGeneratePaperLibrary(t *testing.T) {
	lib := paperLibrary(t)
	if len(lib.Entries) != 18 {
		t.Fatalf("entries = %d, want 18", len(lib.Entries))
	}
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if lib.Flexible == nil || lib.Baseline == nil {
		t.Fatal("missing accelerators")
	}
	if lib.ReconfigTime <= 0 || lib.FlexSwitchTime <= 0 {
		t.Fatal("missing switch costs")
	}
	if lib.DistinctVersions() < 6 {
		t.Fatalf("only %d distinct versions; constraints too coarse", lib.DistinctVersions())
	}
	// The sweep must cover a meaningful throughput range (the paper's
	// Fig. 1(a) spans several ×).
	first, last := lib.Entries[0], lib.Entries[len(lib.Entries)-1]
	if last.FixedFPS < 4*first.FixedFPS {
		t.Fatalf("FPS range too narrow: %v → %v", first.FixedFPS, last.FixedFPS)
	}
	if first.Accuracy <= last.Accuracy {
		t.Fatal("accuracy did not decrease across the sweep")
	}
	// Flexible throughput tracks fixed throughput closely (small latency
	// overhead only).
	for _, e := range lib.Entries {
		if e.FlexFPS > e.FixedFPS || e.FlexFPS < 0.9*e.FixedFPS {
			t.Fatalf("flex FPS %v vs fixed %v at rate %v", e.FlexFPS, e.FixedFPS, e.NominalRate)
		}
	}
	// Models are not kept by default.
	if lib.Entries[3].Model != nil {
		t.Fatal("models kept despite KeepModels=false")
	}
}

func TestGenerateKeepsModelsWhenAsked(t *testing.T) {
	ds := dataset.TinyDataset(3)
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := train.DefaultOptions()
	opts.Epochs = 1
	opts.Samples = 40
	ev := accuracy.NewTrained(ds, opts)
	lib, err := Generate(m, Config{
		Rates:      []float64{0, 0.5},
		Evaluator:  ev,
		KeepModels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 2 {
		t.Fatalf("entries = %d", len(lib.Entries))
	}
	for _, e := range lib.Entries {
		if e.Model == nil {
			t.Fatal("model not kept")
		}
	}
	// conv0 (8 channels, PE 8) cannot prune under the folding granularity;
	// conv1 (16 channels, granularity 8) halves at a 50 % rate.
	if got := lib.Entries[1].Model.ConvChannels()[1]; got != 8 {
		t.Fatalf("kept model conv1 channels = %d, want 8", got)
	}
}

func TestTableRoundTrip(t *testing.T) {
	lib := paperLibrary(t)
	var buf bytes.Buffer
	if err := lib.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}
	var tab Table
	if err := json.NewDecoder(&buf).Decode(&tab); err != nil {
		t.Fatal(err)
	}
	if err := validateTable(&tab); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(lib.Entries) {
		t.Fatalf("rows %d vs entries %d", len(tab.Rows), len(lib.Entries))
	}
	if tab.ModelName != lib.ModelName || tab.Dataset != lib.Dataset {
		t.Fatal("identity lost")
	}
	if tab.FlexibleLUT != lib.Flexible.Res.LUT {
		t.Fatal("flexible LUT lost")
	}
	for i, row := range tab.Rows {
		e := lib.Entries[i]
		if row.Accuracy != e.Accuracy || row.FixedFPS != e.FixedFPS {
			t.Fatalf("row %d mismatch", i)
		}
		if len(row.Channels) != len(e.Channels) {
			t.Fatalf("row %d channels lost", i)
		}
	}
	if tab.ReconfigMS < 100 || tab.ReconfigMS > 200 {
		t.Fatalf("reconfig ms = %v", tab.ReconfigMS)
	}
}

func TestTableValidateRejectsDisorder(t *testing.T) {
	tab := &Table{Version: 1, Rows: []TableRow{
		{NominalRate: 0.5, Accuracy: 0.8},
		{NominalRate: 0.2, Accuracy: 0.9},
	}}
	if err := validateTable(tab); err == nil {
		t.Fatal("descending rates accepted")
	}
}

func TestGenerateAddsZeroRate(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Generate(m, Config{Rates: []float64{0.5}, Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	if lib.Entries[0].NominalRate != 0 {
		t.Fatal("unpruned baseline entry missing")
	}
}

// TestGenerateLeavesCallerRatesAlone: Generate sorts its own copy of the
// sweep, never the caller's slice.
func TestGenerateLeavesCallerRatesAlone(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.5, 0.25, 0.75}
	lib, err := Generate(m, Config{Rates: rates, Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0.5 || rates[1] != 0.25 || rates[2] != 0.75 {
		t.Fatalf("Generate reordered the caller's rates to %v", rates)
	}
	var got []float64
	for _, e := range lib.Entries {
		got = append(got, e.NominalRate)
	}
	if len(got) != 4 || got[0] != 0 || got[1] != 0.25 || got[2] != 0.5 || got[3] != 0.75 {
		t.Fatalf("entry rates = %v, want [0 0.25 0.5 0.75]", got)
	}
	if _, err := Generate(m, Config{Rates: []float64{}, Evaluator: ev}); err == nil {
		t.Fatal("empty rate sweep accepted")
	}
}

// validateTable checks a table's invariants, Library.Validate on the
// data-only form: rows present, rates ascending, accuracy not increasing.
func validateTable(t *Table) error {
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
