package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// TestStagedForwardMatchesLayers is the exactness grid of the staged
// path: CNVW2A2 and CNVW1A2 pruned at 0/25/50/85 %, every ScaleShift
// given random γ (an eighth of them zero, a quarter negative) and β, and
// batches of 1, 3 and 8 at 1, 2 and NumCPU workers. ForwardBatch must equal
// per-sample Forward bit for bit, and the path counters must show every
// quantized layer on the integer body, conv1–conv5, fc0 and fc1 served
// from levels, and conv0 from floats.
func TestStagedForwardMatchesLayers(t *testing.T) {
	prevGrain := tensor.SetParallelGrain(1)
	defer tensor.SetParallelGrain(prevGrain)
	ds := dataset.SyntheticCIFAR10(2)
	xs := make([]*tensor.Tensor, 8)
	for j := range xs {
		xs[j], _ = ds.TestSample(j)
	}
	for _, build := range []func(string, int, int64) (*model.Model, error){model.CNVW2A2, model.CNVW1A2} {
		m, err := build("cifar10", 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
		if err != nil {
			t.Fatal(err)
		}
		for ri, rate := range []float64{0, 0.25, 0.5, 0.85} {
			t.Run(fmt.Sprintf("%s/p%.0f", m.Name, rate*100), func(t *testing.T) {
				pm, _, err := prune.Shrink(m, rate, gran)
				if err != nil {
					t.Fatal(err)
				}
				randomAffines(t, pm.Net, xs, rand.New(rand.NewSource(int64(ri+1))))
				want := make([]*tensor.Tensor, len(xs))
				for j, x := range xs {
					if want[j], err = pm.Net.Forward(x, false); err != nil {
						t.Fatal(err)
					}
				}
				for _, bsz := range []int{1, 3, 8} {
					for _, workers := range []int{1, 2, runtime.NumCPU()} {
						before := pathCounts(pm.Net)
						prev := tensor.SetMaxWorkers(workers)
						got, err := pm.Net.ForwardBatch(xs[:bsz])
						tensor.SetMaxWorkers(prev)
						name := fmt.Sprintf("B=%d workers=%d", bsz, workers)
						sameResults(t, name, got, err, want[:bsz], nil)
						checkStagedCounts(t, before, pathCounts(pm.Net), bsz)
					}
				}
			})
		}
	}
}

// sameResults demands the same outputs bit for bit, or the same error
// text.
func sameResults(t *testing.T, name string, got []*tensor.Tensor, gotErr error, want []*tensor.Tensor, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for j := range want {
		if fmt.Sprint(got[j].Shape()) != fmt.Sprint(want[j].Shape()) {
			t.Fatalf("%s sample %d: shape %v, want %v", name, j, got[j].Shape(), want[j].Shape())
		}
		for i, v := range want[j].Data() {
			if math.Float32bits(got[j].Data()[i]) != math.Float32bits(v) {
				t.Fatalf("%s sample %d out[%d]: %v, want %v", name, j, i, got[j].Data()[i], v)
			}
		}
	}
}

// TestImageLayersOnPlanes checks the layers that take image codes: in
// ForwardBatch, CNVW2A2's conv0 (CIFAR images, codes 0…127, seven planes)
// and TFC's fc0 (signed inputs, eight planes, and non-negative ones, seven)
// must serve every sample on the integer body, from floats.
func TestImageLayersOnPlanes(t *testing.T) {
	cnv, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tfc, err := model.TFC("mnist", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.SyntheticCIFAR10(3)
	rng := rand.New(rand.NewSource(3))
	images := func(signed bool) []*tensor.Tensor {
		xs := make([]*tensor.Tensor, 3)
		for j := range xs {
			xs[j] = tensor.New(1, 28, 28)
			for i := range xs[j].Data() {
				v := rng.NormFloat64()
				if !signed {
					v = math.Abs(v)
				}
				xs[j].Data()[i] = float32(v)
			}
		}
		return xs
	}
	cifar := make([]*tensor.Tensor, 3)
	for j := range cifar {
		cifar[j], _ = ds.TestSample(j)
	}
	for _, tc := range []struct {
		name string
		m    *model.Model
		xs   []*tensor.Tensor
	}{
		{"CNVW2A2 conv0", cnv, cifar},
		{"TFC fc0, signed inputs", tfc, images(true)},
		{"TFC fc0, non-negative inputs", tfc, images(false)},
	} {
		var first nn.Layer
		for _, nl := range tc.m.Net.Layers {
			switch nl.Layer.(type) {
			case *nn.Conv2D, *nn.Dense:
				first = nl.Layer
			}
			if first != nil {
				break
			}
		}
		ints, levels := nn.PathCounts(first)
		if _, err := tc.m.Net.ForwardBatch(tc.xs); err != nil {
			t.Fatal(err)
		}
		ints2, levels2 := nn.PathCounts(first)
		if got, want := [2]int{ints2 - ints, levels2 - levels}, [2]int{len(tc.xs), 0}; got != want {
			t.Errorf("%s: %d int8 samples, %d from levels; want %v", tc.name, got[0], got[1], want)
		}
	}
}
