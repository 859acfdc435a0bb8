package library

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// weightEvaluator hides Calibrated's channel-count interface, which sends
// Generate down the weight-gathering path.
type weightEvaluator struct{ inner accuracy.Evaluator }

func (e weightEvaluator) Accuracy(m *model.Model) (float64, error) { return e.inner.Accuracy(m) }

// paperPair builds one of the paper's initial models with its calibrated
// evaluator.
func paperPair(t *testing.T, name, ds string) (*model.Model, *accuracy.Calibrated) {
	t.Helper()
	build, classes := model.CNVW2A2, 10
	if name == "CNVW1A2" {
		build = model.CNVW1A2
	}
	if ds == "gtsrb" {
		classes = 43
	}
	m, err := build(ds, classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated(name, ds)
	if err != nil {
		t.Fatal(err)
	}
	return m, ev
}

// TestGenerateShapeOnlyMatchesWeightPath: the library built from pruned
// shapes alone equals, field for field, the one built from gathered
// weights, for every paper model/dataset pair at one and NumCPU workers.
// Only Stats.Wall may differ (and Entry.Model, nil on both paths here).
func TestGenerateShapeOnlyMatchesWeightPath(t *testing.T) {
	for _, pair := range [][2]string{
		{"CNVW2A2", "cifar10"}, {"CNVW2A2", "gtsrb"}, {"CNVW1A2", "cifar10"}, {"CNVW1A2", "gtsrb"},
	} {
		m, ev := paperPair(t, pair[0], pair[1])
		for _, workers := range []int{1, runtime.NumCPU()} {
			name := fmt.Sprintf("%s/%s workers=%d", pair[0], pair[1], workers)
			shape, err := Generate(m, Config{Evaluator: ev, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			full, err := Generate(m, Config{Evaluator: weightEvaluator{ev}, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			shape.Stats.Wall, full.Stats.Wall = 0, 0
			for i := range full.Entries {
				if !reflect.DeepEqual(shape.Entries[i], full.Entries[i]) {
					t.Fatalf("%s: entry %d differs:\n shape %+v\n full  %+v", name, i, shape.Entries[i], full.Entries[i])
				}
			}
			if !reflect.DeepEqual(shape, full) {
				t.Fatalf("%s: libraries differ outside the entries", name)
			}
		}
	}
}

// generateCeiling bounds the bytes one paper-scale Generate (Calibrated,
// KeepModels off, one worker) may allocate. It measures about 345 KB
// (0.33 MB); the ceiling adds about 65 KB of margin. Building the shapes
// from removal lists again (plans' index lists, their sort and the
// per-layer keep lists) would add more than that, gathering even one
// unpruned CNVW2A2 (1.5M float32 parameters, about 6 MB) trips it, and
// the whole weight path allocated about 61 MB.
const generateCeiling = 400 << 10

// TestGenerateMemoryCeiling guards the shape-only path: with a
// channel-count evaluator and no kept models, Generate builds no weights
// and no removal lists.
func TestGenerateMemoryCeiling(t *testing.T) {
	m, ev := paperPair(t, "CNVW2A2", "cifar10")
	cfg := Config{Evaluator: ev, Workers: 1}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// AllocsPerRun calls the function once to warm up, then runs times.
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := Generate(m, cfg); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("Generate: %.2f MB/op (%d B), %.0f allocs/op", float64(perOp)/(1<<20), perOp, allocs)
	if perOp > generateCeiling {
		t.Fatalf("Generate allocated %.2f MB/op, ceiling %.2f MB: are pruned weights or removal lists built again?",
			float64(perOp)/(1<<20), float64(generateCeiling)/(1<<20))
	}
}

// TestGenerateKeepModelsCarriesWeights: with KeepModels, every entry keeps
// its pruned model with every parameter present and sized to the pruned
// shape, even under a channel-count evaluator.
func TestGenerateKeepModelsCarriesWeights(t *testing.T) {
	m, ev := paperPair(t, "CNVW2A2", "cifar10")
	lib, err := Generate(m, Config{Evaluator: ev, KeepModels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range lib.Entries {
		pm := e.Model
		if pm == nil {
			t.Fatalf("rate %v: model not kept", e.NominalRate)
		}
		if !reflect.DeepEqual(pm.ConvChannels(), e.Channels) {
			t.Fatalf("rate %v: kept model channels %v, entry %v", e.NominalRate, pm.ConvChannels(), e.Channels)
		}
		if acc, err := ev.Accuracy(pm); err != nil || acc != e.Accuracy {
			t.Fatalf("rate %v: kept model accuracy %v (%v), entry %v", e.NominalRate, acc, err, e.Accuracy)
		}
		for _, nl := range pm.Net.Layers {
			var want []int // expected length of each parameter, in Params order
			switch l := nl.Layer.(type) {
			case *nn.Conv2D:
				want = []int{l.OutC * l.Geom.InC * l.Geom.KH * l.Geom.KW}
				if l.Bias != nil {
					want = append(want, l.OutC)
				}
			case *nn.Dense:
				want = []int{l.Out * l.In}
				if l.Bias != nil {
					want = append(want, l.Out)
				}
			case *nn.ScaleShift:
				want = []int{l.Channels, l.Channels}
			}
			ps := nl.Layer.Params()
			if len(ps) != len(want) {
				t.Fatalf("rate %v: %s has %d parameters, want %d", e.NominalRate, nl.Layer.Name(), len(ps), len(want))
			}
			for i, p := range ps {
				if p == nil || p.Value == nil || p.Value.Len() != want[i] {
					t.Fatalf("rate %v: %s parameter %d missing or mis-sized", e.NominalRate, nl.Layer.Name(), i)
				}
			}
		}
	}
	last := lib.Entries[len(lib.Entries)-1].Model
	if _, err := last.Net.Predict(tensor.New(last.InC, last.InH, last.InW)); err != nil {
		t.Fatalf("kept model does not run: %v", err)
	}
}
