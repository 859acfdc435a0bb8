package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFig1aCSV(t *testing.T) {
	r, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf)
	if len(recs) != 19 { // header + 18 points
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "nominal_rate" {
		t.Fatalf("header = %v", recs[0])
	}
}

func TestFig1bCSVAndTrace(t *testing.T) {
	r, err := Fig1b(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != 7 {
		t.Fatalf("rows = %d", len(recs))
	}
	for _, s := range r.Series {
		if len(s.Trace) != 2500 {
			t.Fatalf("%s: trace steps = %d", s.Label, len(s.Trace))
		}
	}
}

func TestTable1AndFig5CSV(t *testing.T) {
	tb, err := Table1(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != 9 {
		t.Fatalf("table rows = %d", len(recs))
	}

	f5a, err := Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f5a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != 20 {
		t.Fatalf("fig5a rows = %d", len(recs))
	}

	f5b, err := Fig5bc("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f5b.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != 19 {
		t.Fatalf("fig5b rows = %d", len(recs))
	}

	f6, err := Fig6(1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f6.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != 6*2500+1 {
		t.Fatalf("fig6 rows = %d", len(recs))
	}
}

func TestExtPoolScaling(t *testing.T) {
	r, err := ExtPoolScaling(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Per-board load constant → loss stays in the same band while power
	// scales with the pool.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].AvgPowerW <= r.Rows[i-1].AvgPowerW {
			t.Fatalf("pool power not increasing: %+v", r.Rows)
		}
		if r.Rows[i].FrameLossPct > r.Rows[0].FrameLossPct+5 {
			t.Fatalf("loss degrades with pool size: %+v", r.Rows)
		}
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "multi-FPGA") {
		t.Fatal("render missing title")
	}
	if _, err := ExtPoolScaling(0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestExtEngineComparison(t *testing.T) {
	r, err := ExtEngineComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	df := r.Rows[0]
	if df.Design != "FINN dataflow" {
		t.Fatalf("first row %q", df.Design)
	}
	// At equal per-layer array size the dataflow wins on throughput; the
	// lane-parity engine can raise raw FPS but gives up on-chip weights
	// (tiny BRAM, DRAM-bound weight streaming every frame).
	if r.Rows[1].FPS >= df.FPS {
		t.Fatalf("equal-array engine (%.1f FPS) not slower than dataflow (%.1f)", r.Rows[1].FPS, df.FPS)
	}
	if r.Rows[2].BRAM >= df.BRAM {
		t.Fatalf("lane-parity engine BRAM %d not below dataflow %d", r.Rows[2].BRAM, df.BRAM)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "single-engine") {
		t.Fatal("render missing title")
	}
}

func TestExtMLPNeuronPruning(t *testing.T) {
	r, err := ExtMLPNeuronPruning()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].FPS < r.Rows[i-1].FPS {
			t.Fatalf("MLP FPS not monotone: %+v", r.Rows)
		}
		if r.Rows[i].LUT > r.Rows[i-1].LUT {
			t.Fatalf("MLP LUT not shrinking: %+v", r.Rows)
		}
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "neuron pruning") {
		t.Fatal("render missing title")
	}
}

func TestExtChurn(t *testing.T) {
	r, err := ExtChurn(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AdaFlow.FrameLossPct >= r.FINN.FrameLossPct {
		t.Fatalf("churn: AdaFlow %.1f%% ≥ FINN %.1f%%", r.AdaFlow.FrameLossPct, r.FINN.FrameLossPct)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "device churn") {
		t.Fatal("render missing title")
	}
	if _, err := ExtChurn(0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
}
