package explore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/synth"
)

func cnv(t *testing.T) *model.Model {
	t.Helper()
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMinimalFoldingLegal(t *testing.T) {
	m := cnv(t)
	f := MinimalFolding(m)
	if err := f.Validate(m); err != nil {
		t.Fatal(err)
	}
	df, err := finn.Map(m, f, finn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if df.FPS() > 50 {
		t.Fatalf("minimal folding suspiciously fast: %.1f FPS", df.FPS())
	}
}

func TestTargetFPSReached(t *testing.T) {
	m := cnv(t)
	res, err := TargetFPS(m, 400, Options{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.FPS < 400 {
		t.Fatalf("FPS = %.1f, wanted ≥400", res.FPS)
	}
	if err := res.Folding.Validate(m); err != nil {
		t.Fatalf("explored folding illegal: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatal("no unfolding performed")
	}
	if !synth.ZCU104.Fits(res.Res) {
		t.Fatal("result does not fit the device")
	}
}

func TestTargetFPSMonotoneCost(t *testing.T) {
	m := cnv(t)
	slow, err := TargetFPS(m, 100, Options{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := TargetFPS(m, 800, Options{MaxIterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Res.LUT <= slow.Res.LUT {
		t.Fatalf("faster design not costlier: %d vs %d LUTs", fast.Res.LUT, slow.Res.LUT)
	}
	if fast.FPS <= slow.FPS {
		t.Fatal("FPS not increasing with target")
	}
}

func TestTargetFPSUnreachable(t *testing.T) {
	m := cnv(t)
	res, err := TargetFPS(m, 1e9, Options{MaxIterations: 5000})
	if err == nil {
		t.Fatal("impossible target reported success")
	}
	if res == nil || res.FPS <= 0 {
		t.Fatal("no best-effort result returned")
	}
}

func TestTargetFPSValidation(t *testing.T) {
	m := cnv(t)
	if _, err := TargetFPS(m, 0, Options{}); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestMaxFPSWithinBudget(t *testing.T) {
	m := cnv(t)
	small, err := MaxFPSWithin(m, 30_000, Options{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if small.Res.LUT > 30_000 {
		t.Fatalf("budget exceeded: %d", small.Res.LUT)
	}
	big, err := MaxFPSWithin(m, 120_000, Options{MaxIterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if big.Res.LUT > 120_000 {
		t.Fatalf("budget exceeded: %d", big.Res.LUT)
	}
	if big.FPS <= small.FPS {
		t.Fatalf("bigger budget not faster: %.1f vs %.1f", big.FPS, small.FPS)
	}
	if _, err := MaxFPSWithin(m, 0, Options{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := MaxFPSWithin(m, 100, Options{}); err == nil {
		t.Fatal("budget below minimal design accepted")
	}
}

// The explorer should beat or match the handcrafted DefaultFolding at the
// same throughput: given the default's FPS as target, the explored design
// must not need wildly more LUTs.
func TestExploreCompetitiveWithDefault(t *testing.T) {
	m := cnv(t)
	def := finn.DefaultFolding(m)
	df, err := finn.Map(m, def, finn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := synth.Synthesize(df, synth.ZCU104)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TargetFPS(m, df.FPS(), Options{MaxIterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Res.LUT) > 1.3*float64(acc.Res.LUT) {
		t.Fatalf("explored design needs %d LUTs vs default %d at %.0f FPS",
			res.Res.LUT, acc.Res.LUT, df.FPS())
	}
}

func TestNextDivisor(t *testing.T) {
	cases := []struct{ n, cur, want int }{
		{12, 1, 2}, {12, 2, 3}, {12, 3, 4}, {12, 4, 6}, {12, 6, 12}, {12, 12, 0},
		{7, 1, 7}, {7, 7, 0},
	}
	for _, c := range cases {
		if got := nextDivisor(c.n, c.cur); got != c.want {
			t.Errorf("nextDivisor(%d,%d) = %d, want %d", c.n, c.cur, got, c.want)
		}
	}
}

func TestLayerIndexParsing(t *testing.T) {
	if conv, i, ok := layerIndex("mvtu3"); !ok || !conv || i != 3 {
		t.Fatal("mvtu3 parse failed")
	}
	if conv, i, ok := layerIndex("swu0"); !ok || !conv || i != 0 {
		t.Fatal("swu0 parse failed")
	}
	if conv, i, ok := layerIndex("fc2"); !ok || conv || i != 2 {
		t.Fatal("fc2 parse failed")
	}
	if _, _, ok := layerIndex("pool@7"); ok {
		t.Fatal("pool parsed as foldable")
	}
}

// TestFrontierMatchesTargetFPS requires every Frontier point to equal a
// lone TargetFPS search for its target, whatever the order, duplicates,
// non-positive and unreachable entries of the target list.
func TestFrontierMatchesTargetFPS(t *testing.T) {
	m := cnv(t)
	targets := []float64{600, 50, 1e9, 0, 200, 50, -3, 400, 20000, 100}
	for _, opts := range []Options{{MaxIterations: 2000}, {MaxIterations: 40}, {Flexible: true}} {
		pts := Frontier(m, targets, opts)
		if len(pts) != len(targets) {
			t.Fatalf("%+v: %d points for %d targets", opts, len(pts), len(targets))
		}
		for i, pt := range pts {
			want, wantErr := TargetFPS(m, targets[i], opts)
			if pt.TargetFPS != targets[i] {
				t.Fatalf("%+v point %d: target %v, want %v", opts, i, pt.TargetFPS, targets[i])
			}
			if fmt.Sprint(pt.Err) != fmt.Sprint(wantErr) {
				t.Fatalf("%+v target %v: err %v, want %v", opts, targets[i], pt.Err, wantErr)
			}
			if !reflect.DeepEqual(pt.Result, want) {
				t.Fatalf("%+v target %v:\n frontier:  %+v\n TargetFPS: %+v", opts, targets[i], pt.Result, want)
			}
		}
	}
}
