package accuracy

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/train"
)

func TestNewCalibratedKnownPairs(t *testing.T) {
	for _, key := range [][2]string{
		{"CNVW2A2", "cifar10"}, {"CNVW2A2", "gtsrb"},
		{"CNVW1A2", "cifar10"}, {"CNVW1A2", "gtsrb"},
	} {
		if _, err := NewCalibrated(key[0], key[1]); err != nil {
			t.Errorf("%v: %v", key, err)
		}
	}
	if _, err := NewCalibrated("resnet", "imagenet"); err == nil {
		t.Fatal("unknown pair accepted")
	}
}

// Pins the Fig. 5(b) anchor: CNVW2A2/CIFAR-10 loses ≈9.9 accuracy points
// at 25 % pruning.
func TestCalibratedAnchorAt25(t *testing.T) {
	c, err := NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	loss := c.Baseline - c.AccuracyAtRate(0.25)
	if loss < 0.085 || loss > 0.115 {
		t.Fatalf("loss at 25%% = %.3f, want ≈0.099", loss)
	}
}

func TestCalibratedMonotoneAndFloored(t *testing.T) {
	c, err := NewCalibrated("CNVW1A2", "gtsrb")
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for p := 0.0; p <= 0.90; p += 0.05 {
		a := c.AccuracyAtRate(p)
		if a > prev {
			t.Fatalf("accuracy increases at p=%v", p)
		}
		if a < c.Chance {
			t.Fatalf("accuracy below chance at p=%v", p)
		}
		prev = a
	}
}

func TestEffectivePruneFraction(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := EffectivePruneFraction(m); err != nil || p != 0 {
		t.Fatalf("unpruned fraction = %v, %v", p, err)
	}
	pr, _, err := prune.Shrink(m, 0.5, prune.Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := EffectivePruneFraction(pr); err != nil || p != 0.5 {
		t.Fatalf("pruned fraction = %v, %v, want 0.5", p, err)
	}
}

// TestChannelCountMismatch: base and pruned channel lists of different
// lengths are an error on every route to the curve, never a fraction
// computed over the shorter list.
func TestChannelCountMismatch(t *testing.T) {
	c, err := NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1) // convs of 8 and 16
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		base, channels []int
		want           float64 // when wantErr is empty
		wantErr        string
	}{
		{"equal", []int{8, 16}, []int{8, 16}, c.Baseline, ""},
		{"pruned", []int{8, 16}, []int{8, 8}, c.AccuracyAtRate(1 - 16.0/24), ""},
		{"no convolutions", nil, nil, c.Baseline, ""},
		{"base longer", []int{8, 16, 32}, []int{8, 16}, 0, "3 base channel entries for 2 convolutions"},
		{"base shorter", []int{8}, []int{8, 16}, 0, "1 base channel entries for 2 convolutions"},
		{"base missing", nil, []int{8, 16}, 0, "0 base channel entries for 2 convolutions"},
		{"grown", []int{8, 16}, []int{8, 32}, 0, "out of [0,1)"},
		{"all removed", []int{8, 16}, []int{0, 0}, 0, "out of [0,1)"},
	} {
		got, err := c.AccuracyOfChannels(tc.base, tc.channels)
		if tc.wantErr == "" && (err != nil || got != tc.want) {
			t.Errorf("%s: AccuracyOfChannels = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: AccuracyOfChannels err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if !slices.Equal(tc.channels, m.ConvChannels()) {
			continue
		}
		// The model route shares the formula: same value, same error.
		mm := *m
		mm.BaseChannels = tc.base
		if mgot, merr := c.Accuracy(&mm); mgot != got || fmt.Sprint(merr) != fmt.Sprint(err) {
			t.Errorf("%s: Accuracy = %v, %v; AccuracyOfChannels = %v, %v", tc.name, mgot, merr, got, err)
		}
		if _, ferr := EffectivePruneFraction(&mm); (ferr != nil) != strings.Contains(tc.wantErr, "base channel") {
			t.Errorf("%s: EffectivePruneFraction err = %v", tc.name, ferr)
		}
	}
}

func TestCalibratedAccuracyOnModel(t *testing.T) {
	c, err := NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Accuracy(m)
	if err != nil {
		t.Fatal(err)
	}
	if a != c.Baseline {
		t.Fatalf("unpruned accuracy %v != baseline %v", a, c.Baseline)
	}
}

func TestTrainedEvaluatorRuns(t *testing.T) {
	ds := dataset.TinyDataset(3)
	m, err := model.TinyCNV("tiny", ds.Name, 0, ds.Classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := train.DefaultOptions()
	opts.Epochs = 2
	opts.Samples = 80
	ev := NewTrained(ds, opts)
	a, err := ev.Accuracy(m)
	if err != nil {
		t.Fatal(err)
	}
	if a < 0 || a > 1 {
		t.Fatalf("accuracy %v out of range", a)
	}
}
