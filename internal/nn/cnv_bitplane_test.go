package nn_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// TestCNVBitplanePath runs CNVW2A2 and CNVW1A2, pruned at FINN channel
// granularity, through ForwardBatch and per-sample Forward and demands the
// brute-force oracle's logits bit for bit. The path counters must show all
// six convolutions on the integer body, which is the bit planes: conv1–
// conv5 on two planes of 2-bit activations, and conv0 on the
// two's-complement planes of its image codes.
func TestCNVBitplanePath(t *testing.T) {
	const batch = 4
	ds := dataset.SyntheticCIFAR10(1)
	xs := make([]*tensor.Tensor, batch)
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
		for _, rate := range []float64{0, 0.25, 0.5, 0.85} {
			t.Run(fmt.Sprintf("%s/p%.0f", m.Name, rate*100), func(t *testing.T) {
				pm, _, err := prune.Shrink(m, rate, gran)
				if err != nil {
					t.Fatal(err)
				}
				checkBitplaneNet(t, pm.Net, xs)
			})
		}
	}
}

func checkBitplaneNet(t *testing.T, net *nn.Network, xs []*tensor.Tensor) {
	t.Helper()
	var convs []*nn.Conv2D
	for _, nl := range net.Layers {
		if c, ok := nl.Layer.(*nn.Conv2D); ok {
			convs = append(convs, c)
		}
	}
	if len(convs) != 6 {
		t.Fatalf("%d convolutions, want 6", len(convs))
	}
	got, err := net.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range xs {
		want, err := oracle(net, x, true)
		if err != nil {
			t.Fatal(err)
		}
		single, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.logits {
			if got[j].Data()[i] != v || single.Data()[i] != v {
				t.Fatalf("sample %d logit %d: batched %v, per-sample %v, oracle %v",
					j, i, got[j].Data()[i], single.Data()[i], v)
			}
		}
	}
	for i, c := range convs {
		// The batch, then every sample on its own.
		if ints, _ := nn.PathCounts(c); ints != 2*len(xs) {
			t.Errorf("conv%d: %d int8 samples, want %d", i, ints, 2*len(xs))
		}
	}
}
