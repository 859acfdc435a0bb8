package nn_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// scalarQuantAct is QuantAct's inference forward written with the scalar
// definition, Quantize per element: the reference for the ladder.
type scalarQuantAct struct{ q *quant.ActQuantizer }

func (a scalarQuantAct) Name() string        { return "scalarquantact" }
func (a scalarQuantAct) Params() []*nn.Param { return nil }
func (a scalarQuantAct) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		out.Data()[i] = a.q.Quantize(v)
	}
	return out, nil
}
func (a scalarQuantAct) Backward(*tensor.Tensor) (*tensor.Tensor, error) {
	return nil, fmt.Errorf("scalarquantact: inference only")
}

// TestQuantActLadderBitIdentical runs CNVW2A2 pruned to 0/25/50/85 %
// through ForwardBatch with its QuantAct layers, which read the exact
// threshold ladder, and again with every QuantAct replaced by the scalar
// Quantize reference; the logits must agree bit for bit.
func TestQuantActLadderBitIdentical(t *testing.T) {
	const batch = 8
	ds := dataset.SyntheticCIFAR10(1)
	xs := make([]*tensor.Tensor, batch)
	for j := range xs {
		xs[j], _ = ds.TestSample(j)
	}
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, 0.25, 0.5, 0.85} {
		t.Run(fmt.Sprintf("p%.0f", rate*100), func(t *testing.T) {
			pm, _, err := prune.Shrink(m, rate, gran)
			if err != nil {
				t.Fatal(err)
			}
			ref := &nn.Network{}
			acts := 0
			for _, nl := range pm.Net.Layers {
				l := nl.Layer
				if qa, ok := l.(*nn.QuantAct); ok {
					l = scalarQuantAct{qa.Q}
					acts++
				}
				ref.Append(l)
			}
			if acts == 0 {
				t.Fatal("model has no QuantAct layers")
			}
			got, err := pm.Net.ForwardBatch(xs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ForwardBatch(xs)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				g, w := got[j].Data(), want[j].Data()
				for i := range w {
					if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
						t.Fatalf("sample %d logit %d: ladder %v, Quantize %v", j, i, g[i], w[i])
					}
				}
			}
		})
	}
}
