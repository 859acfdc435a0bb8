package prune_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/finn"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// The reference below is the clone-then-mutate pruning the gather replaced:
// clone the whole model, then shrink each layer in place, one tensor per
// step. It is kept only as a test oracle for Shrink and ShrinkDense.

func refKeep(n int, remove []int) []int {
	rm := map[int]bool{}
	for _, r := range remove {
		rm[r] = true
	}
	var keep []int
	for i := 0; i < n; i++ {
		if !rm[i] {
			keep = append(keep, i)
		}
	}
	return keep
}

// refGather copies the kept rows of a rows×cols matrix, narrowing each row
// to the kept column groups.
func refGather(src []float32, cols int, keepRows, keepGroups []int, group int, shape ...int) *tensor.Tensor {
	out := tensor.New(shape...)
	d := out.Data()
	n := 0
	for _, r := range keepRows {
		for _, g := range keepGroups {
			n += copy(d[n:], src[r*cols+g*group:r*cols+(g+1)*group])
		}
	}
	return out
}

func refParam(p *nn.Param, v *tensor.Tensor) *nn.Param {
	return &nn.Param{Name: p.Name, Value: v}
}

func refVec(p *nn.Param, keep []int) *nn.Param {
	if p == nil {
		return nil
	}
	return refParam(p, refGather(p.Value.Data(), 1, keep, []int{0}, 1, len(keep)))
}

func refPruneFilters(c *nn.Conv2D, rm []int) {
	keep := refKeep(c.OutC, rm)
	kk := c.Geom.KH * c.Geom.KW
	c.Weight = refParam(c.Weight, refGather(c.Weight.Value.Data(), c.Geom.InC*kk, keep, []int{0}, c.Geom.InC*kk,
		len(keep), c.Geom.InC, c.Geom.KH, c.Geom.KW))
	c.Bias = refVec(c.Bias, keep)
	c.OutC = len(keep)
}

func refPruneInputChannels(c *nn.Conv2D, rm []int) {
	keep := refKeep(c.Geom.InC, rm)
	kk := c.Geom.KH * c.Geom.KW
	c.Weight = refParam(c.Weight, refGather(c.Weight.Value.Data(), c.Geom.InC*kk, refKeep(c.OutC, nil), keep, kk,
		c.OutC, len(keep), c.Geom.KH, c.Geom.KW))
	c.Geom.InC = len(keep)
}

func refPruneNeurons(d *nn.Dense, rm []int) {
	keep := refKeep(d.Out, rm)
	d.Weight = refParam(d.Weight, refGather(d.Weight.Value.Data(), d.In, keep, []int{0}, d.In, len(keep), d.In))
	d.Bias = refVec(d.Bias, keep)
	d.Out = len(keep)
}

func refPruneInputs(d *nn.Dense, rm []int, group int) {
	keep := refKeep(d.In/group, rm)
	newIn := len(keep) * group
	d.Weight = refParam(d.Weight, refGather(d.Weight.Value.Data(), d.In, refKeep(d.Out, nil), keep, group, d.Out, newIn))
	d.In = newIn
}

func refPruneScaleShift(s *nn.ScaleShift, rm []int) {
	keep := refKeep(s.Channels, rm)
	s.Gamma = refVec(s.Gamma, keep)
	s.Beta = refVec(s.Beta, keep)
	s.Channels = len(keep)
}

// refApply is the old in-place Apply, run on a clone.
func refApply(t *testing.T, m *model.Model, p *prune.Plan) *model.Model {
	t.Helper()
	m, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		t.Fatal(err)
	}
	var convLayers []int
	for li, nl := range m.Net.Layers {
		if _, ok := nl.Layer.(*nn.Conv2D); ok {
			convLayers = append(convLayers, li)
		}
	}
	convs := m.Net.Convs()
	for ci := len(convs) - 1; ci >= 0; ci-- {
		rm := p.Removed[ci]
		if len(rm) == 0 {
			continue
		}
		li := convLayers[ci]
		refPruneFilters(convs[ci], rm)
		consumed := false
		for lj := li + 1; lj < len(m.Net.Layers) && !consumed; lj++ {
			switch l := m.Net.Layers[lj].Layer.(type) {
			case *nn.ScaleShift:
				refPruneScaleShift(l, rm)
			case *nn.MaxPool2D:
				l.Geom.InC = convs[ci].OutC
			case *nn.Conv2D:
				refPruneInputChannels(l, rm)
				consumed = true
			case *nn.Dense:
				foot := 1
				for lk := lj - 1; lk > li; lk-- {
					if len(shapes[lk]) == 3 {
						foot = shapes[lk][1] * shapes[lk][2]
						break
					}
				}
				if lj == li+1 {
					foot = shapes[li][1] * shapes[li][2]
				}
				refPruneInputs(l, rm, foot)
				consumed = true
			}
		}
		if !consumed {
			t.Fatalf("reference: conv %d has no consumer", ci)
		}
	}
	m.PruneRate = p.Rate
	return m
}

// refApplyNeurons is the old in-place ApplyNeurons, run on a clone.
func refApplyNeurons(t *testing.T, m *model.Model, p *prune.DensePlan) *model.Model {
	t.Helper()
	m, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	var denseLayers []int
	for li, nl := range m.Net.Layers {
		if _, ok := nl.Layer.(*nn.Dense); ok {
			denseLayers = append(denseLayers, li)
		}
	}
	denses := m.Net.Denses()
	for di := len(p.Removed) - 1; di >= 0; di-- {
		rm := p.Removed[di]
		if len(rm) == 0 {
			continue
		}
		refPruneNeurons(denses[di], rm)
		consumed := false
		for lj := denseLayers[di] + 1; lj < len(m.Net.Layers) && !consumed; lj++ {
			switch l := m.Net.Layers[lj].Layer.(type) {
			case *nn.ScaleShift:
				refPruneScaleShift(l, rm)
			case *nn.Dense:
				refPruneInputs(l, rm, 1)
				consumed = true
			}
		}
		if !consumed {
			t.Fatalf("reference: dense %d has no consumer", di)
		}
	}
	return m
}

// sameParam reports whether two parameters hold bit-identical values of
// the same shape.
func sameParam(a, b *nn.Param) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("presence differs")
	}
	if a == nil {
		return nil
	}
	if a.Name != b.Name {
		return fmt.Errorf("name %q, want %q", a.Name, b.Name)
	}
	as, bs := a.Value.Shape(), b.Value.Shape()
	if fmt.Sprint(as) != fmt.Sprint(bs) {
		return fmt.Errorf("shape %v, want %v", as, bs)
	}
	for i, v := range a.Value.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Value.Data()[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, v, b.Value.Data()[i])
		}
	}
	return nil
}

// sameModel checks that got matches want layer by layer: geometry,
// parameters (bit-identical) and model metadata.
func sameModel(got, want *model.Model) error {
	if got.Name != want.Name || got.Dataset != want.Dataset || got.PruneRate != want.PruneRate ||
		fmt.Sprint(got.BaseChannels) != fmt.Sprint(want.BaseChannels) {
		return fmt.Errorf("model metadata differs: %+v vs %+v", *got, *want)
	}
	if len(got.Net.Layers) != len(want.Net.Layers) {
		return fmt.Errorf("%d layers, want %d", len(got.Net.Layers), len(want.Net.Layers))
	}
	for i, nl := range got.Net.Layers {
		var err error
		switch g := nl.Layer.(type) {
		case *nn.Conv2D:
			w := want.Net.Layers[i].Layer.(*nn.Conv2D)
			if g.ID != w.ID || g.Geom != w.Geom || g.OutC != w.OutC || g.Quant != w.Quant || g.PerChannel != w.PerChannel {
				err = fmt.Errorf("conv fields differ")
			} else if err = sameParam(g.Weight, w.Weight); err == nil {
				err = sameParam(g.Bias, w.Bias)
			}
		case *nn.Dense:
			w := want.Net.Layers[i].Layer.(*nn.Dense)
			if g.ID != w.ID || g.In != w.In || g.Out != w.Out || g.Flat != w.Flat || g.Quant != w.Quant {
				err = fmt.Errorf("dense fields differ")
			} else if err = sameParam(g.Weight, w.Weight); err == nil {
				err = sameParam(g.Bias, w.Bias)
			}
		case *nn.ScaleShift:
			w := want.Net.Layers[i].Layer.(*nn.ScaleShift)
			if g.ID != w.ID || g.Channels != w.Channels {
				err = fmt.Errorf("scaleshift fields differ")
			} else if err = sameParam(g.Gamma, w.Gamma); err == nil {
				err = sameParam(g.Beta, w.Beta)
			}
		case *nn.MaxPool2D:
			w := want.Net.Layers[i].Layer.(*nn.MaxPool2D)
			if g.ID != w.ID || g.Geom != w.Geom {
				err = fmt.Errorf("maxpool geometry %+v, want %+v", g.Geom, w.Geom)
			}
		default:
			if nl.Layer.Name() != want.Net.Layers[i].Layer.Name() {
				err = fmt.Errorf("layer %s, want %s", nl.Layer.Name(), want.Net.Layers[i].Layer.Name())
			}
		}
		if err != nil {
			return fmt.Errorf("layer %d (%s): %w", i, nl.Layer.Name(), err)
		}
	}
	return nil
}

// checkNoAlias overwrites every parameter of pruned and checks that the
// initial model still equals its snapshot.
func checkNoAlias(t *testing.T, initial, snapshot, pruned *model.Model) {
	t.Helper()
	for _, p := range pruned.Net.Params() {
		p.Value.Fill(42)
	}
	if err := sameModel(initial, snapshot); err != nil {
		t.Fatalf("writing the pruned model changed the initial one: %v", err)
	}
}

func TestShrinkMatchesReference(t *testing.T) {
	cnv, err := model.CNVW2A2("cifar10-syn", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := model.BuildMLP(model.Config{
		Name: "mlp", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		DenseSizes: []int{32, 16}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tfc, err := model.TFC("mnist-syn", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*model.Model{tiny, cnv, mlp, tfc} {
		snapshot, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		fold := finn.DefaultFolding(m)
		if convs := len(m.Net.Convs()); convs > 0 {
			gran, err := fold.ChannelGranularity(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range [][]int{gran, prune.Ones(convs)} {
				rank := prune.RankFilters(m)
				for _, rate := range library.PaperRates() {
					got, plan, err := rank.Shrink(m, rate, g)
					if err != nil {
						t.Fatal(err)
					}
					want := refApply(t, m, plan)
					if err := sameModel(got, want); err != nil {
						t.Fatalf("%s conv rate %v: %v", m.Name, rate, err)
					}
					checkNoAlias(t, m, snapshot, got)
				}
			}
		}
		gran, err := fold.DenseGranularity(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range library.PaperRates() {
			got, plan, err := prune.ShrinkDense(m, rate, gran)
			if err != nil {
				t.Fatal(err)
			}
			want := refApplyNeurons(t, m, plan)
			if err := sameModel(got, want); err != nil {
				t.Fatalf("%s dense rate %v: %v", m.Name, rate, err)
			}
			checkNoAlias(t, m, snapshot, got)
		}
	}
}

// stripParams drops every parameter of m's layers, leaving the shape
// ApplyShape builds.
func stripParams(m *model.Model) {
	for _, nl := range m.Net.Layers {
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			l.Weight, l.Bias = nil, nil
		case *nn.Dense:
			l.Weight, l.Bias = nil, nil
		case *nn.ScaleShift:
			l.Gamma, l.Beta = nil, nil
		}
	}
}

// TestApplyShapeMatchesApply: at every paper rate, with and without the
// dataflow constraints, the shape-only walk over the count plan builds
// Apply's model over the ranked plan minus its parameters (sameModel
// requires both sides' to be nil), and finn maps both to the same
// dataflow.
func TestApplyShapeMatchesApply(t *testing.T) {
	w1, err := model.CNVW1A2("gtsrb", 43, 1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*model.Model{tiny, w1, w2} {
		gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
		if err != nil {
			t.Fatal(err)
		}
		rank := prune.RankFilters(m)
		for _, g := range [][]int{gran, prune.Ones(len(gran))} {
			for _, rate := range library.PaperRates() {
				plan, err := rank.Plan(rate, g)
				if err != nil {
					t.Fatal(err)
				}
				counts, err := prune.PlanChannels(m, rate, g)
				if err != nil {
					t.Fatal(err)
				}
				full, err := prune.Apply(m, plan)
				if err != nil {
					t.Fatal(err)
				}
				shape, err := prune.ApplyShape(m, counts)
				if err != nil {
					t.Fatal(err)
				}
				fullDF, err := finn.Map(full, finn.DefaultFolding(full), finn.Options{})
				if err != nil {
					t.Fatal(err)
				}
				shapeDF, err := finn.Map(shape, finn.DefaultFolding(shape), finn.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fullDF, shapeDF) {
					t.Fatalf("%s rate %v: dataflows differ", m.Name, rate)
				}
				stripParams(full)
				if err := sameModel(shape, full); err != nil {
					t.Fatalf("%s rate %v: %v", m.Name, rate, err)
				}
			}
		}
	}
}
