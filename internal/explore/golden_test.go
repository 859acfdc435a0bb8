package explore

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

var update = flag.Bool("update", false, "rewrite testdata/frontier.golden")

// goldenTargets spans the non-positive, unreachable and in-between cases
// of a frontier sweep.
var goldenTargets = []float64{-1, 0, 50, 100, 200, 400, 600, 1000, 2000, 5000, 10000, 20000, 1e9}

var goldenBudgets = []int{10, 30000, 100000, 200000, 1e6}

func goldenModels(t *testing.T) []*model.Model {
	t.Helper()
	w2, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := model.CNVW1A2("gtsrb", 43, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []*model.Model{w2, w1}
}

func writeResult(b *strings.Builder, r *Result, err error) {
	if r == nil {
		fmt.Fprintf(b, "  no result\n")
	} else {
		fmt.Fprintf(b, "  fps=%v it=%d bottleneck=%s res=%+v\n", r.FPS, r.Iterations, r.Bottleneck, r.Res)
		fmt.Fprintf(b, "  convPE=%v convSIMD=%v densePE=%v denseSIMD=%v\n",
			r.Folding.ConvPE, r.Folding.ConvSIMD, r.Folding.DensePE, r.Folding.DenseSIMD)
	}
	if err != nil {
		fmt.Fprintf(b, "  err=%v\n", err)
	}
}

// TestFrontierGolden pins every query's answer — folding, exact FPS,
// resources, iterations, bottleneck and error text — for both CNV models,
// fixed and flexible, at a large and a small iteration budget.
// Regenerate after an intentional change with:
//
//	go test ./internal/explore/ -run FrontierGolden -update
func TestFrontierGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range goldenModels(t) {
		for _, flexible := range []bool{false, true} {
			for _, maxIt := range []int{10000, 40} {
				opts := Options{MaxIterations: maxIt, Flexible: flexible}
				fmt.Fprintf(&b, "== %s flexible=%v maxIt=%d\n", m.Key(), flexible, maxIt)
				for _, pt := range Frontier(m, goldenTargets, opts) {
					fmt.Fprintf(&b, "target %v\n", pt.TargetFPS)
					writeResult(&b, pt.Result, pt.Err)
				}
				for _, lut := range goldenBudgets {
					fmt.Fprintf(&b, "lut-budget %d\n", lut)
					r, err := MaxFPSWithin(m, lut, opts)
					writeResult(&b, r, err)
				}
			}
		}
	}
	path := filepath.Join("testdata", "frontier.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got:  %s\n want: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden length mismatch: got %d lines, want %d", len(gl), len(wl))
	}
}
