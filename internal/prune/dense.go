package prune

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nn"
)

// DensePlan records neuron removals for the hidden dense layers (the
// paper's §IV-A1 covers "neurons, in the case of a fully-connected layer";
// the classifier head is never pruned). Neuron pruning applies to Fixed
// accelerators — the Flexible templates' runtime parameter covers CONV
// channels only, as in the paper.
type DensePlan struct {
	Rate          float64
	Removed       [][]int // per hidden dense layer
	Widths        []int   // resulting Out per hidden dense layer
	EffectiveRate float64
}

// PlanNeurons computes a neuron-pruning plan at the given nominal rate.
// granularity has one entry per hidden dense layer (see
// finn.Folding.DenseGranularity); pass all-1s for free pruning.
func PlanNeurons(m *model.Model, rate float64, granularity []int) (*DensePlan, error) {
	hidden, err := hiddenDenses(m)
	if err != nil {
		return nil, err
	}
	units := make([]int, len(hidden))
	for i, d := range hidden {
		units[i] = d.Out
	}
	widths, eff, err := planCounts(units, rate, granularity, "dense")
	if err != nil {
		return nil, err
	}
	orders := make([][]int, len(hidden))
	for i, d := range hidden {
		orders[i] = rankL1(d.NeuronL1Norms())
	}
	return &DensePlan{Rate: rate, Removed: prefixes(orders, widths), Widths: widths, EffectiveRate: eff}, nil
}

// hiddenDenses returns m's dense layers except the classifier head.
func hiddenDenses(m *model.Model) ([]*nn.Dense, error) {
	denses := m.Net.Denses()
	if len(denses) == 0 {
		return nil, fmt.Errorf("prune: model has no dense layers")
	}
	return denses[:len(denses)-1], nil
}

// ApplyNeurons builds the model a neuron plan prunes m to, leaving m
// untouched: each hidden dense loses the planned neurons, the following
// per-channel layers shrink, and the next dense narrows its inputs (see
// Apply).
func ApplyNeurons(m *model.Model, p *DensePlan) (*model.Model, error) {
	hidden, err := hiddenDenses(m)
	if err != nil {
		return nil, err
	}
	if len(p.Removed) != len(hidden) {
		return nil, fmt.Errorf("prune: plan has %d entries for %d hidden dense layers", len(p.Removed), len(hidden))
	}
	return gather(m, nil, p.Removed)
}

// ShrinkDense builds m neuron-pruned at the given rate and returns it with
// its plan. The original is untouched.
func ShrinkDense(m *model.Model, rate float64, granularity []int) (*model.Model, *DensePlan, error) {
	p, err := PlanNeurons(m, rate, granularity)
	if err != nil {
		return nil, nil, err
	}
	pm, err := ApplyNeurons(m, p)
	if err != nil {
		return nil, nil, err
	}
	return pm, p, nil
}
