package compile

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tensor"
)

// Run executes the program on one CHW input frame and returns the logits.
// It runs the loaded model's own network through nn.Network.ForwardBatch,
// so a Flexible program computes exactly what the currently loaded pruned
// model computes — the functional property behind the paper's Fig. 3
// templates. Run is not safe for concurrent use, as nn.Network is not.
func (p *Program) Run(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != p.InC || x.Dim(1) != p.InH || x.Dim(2) != p.InW {
		return nil, fmt.Errorf("compile: input %v does not match %dx%dx%d", x.Shape(), p.InC, p.InH, p.InW)
	}
	outs, err := p.net.ForwardBatch([]*tensor.Tensor{x})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return outs[0], nil
}

// LoadModel reloads a flexible program with another pruned version of the
// same initial model: its network replaces the program's and the runtime
// channel configuration is updated — the fast model switch (channel-port
// write + weight reload) of the paper's Flexible accelerator.
func (p *Program) LoadModel(m *model.Model) error {
	if !p.Flexible {
		return fmt.Errorf("compile: %s is a fixed program; switching needs reconfiguration", p.Name)
	}
	np, err := Compile(m, true)
	if err != nil {
		return err
	}
	if np.InC != p.InC || np.InH != p.InH || np.InW != p.InW || np.Classes != p.Classes {
		return fmt.Errorf("compile: model maps %dx%dx%d to %d classes, program %dx%dx%d to %d",
			np.InC, np.InH, np.InW, np.Classes, p.InC, p.InH, p.InW, p.Classes)
	}
	if len(np.WorstChannels) != len(p.WorstChannels) {
		return fmt.Errorf("compile: model has %d convolutions, program has %d", len(np.WorstChannels), len(p.WorstChannels))
	}
	for i := range np.WorstChannels {
		if np.WorstChannels[i] != p.WorstChannels[i] {
			return fmt.Errorf("compile: conv %d worst case %d does not match program %d — not a version of the same initial model",
				i, np.WorstChannels[i], p.WorstChannels[i])
		}
	}
	if len(np.net.Layers) != len(p.net.Layers) {
		return fmt.Errorf("compile: model has %d layers, program has %d", len(np.net.Layers), len(p.net.Layers))
	}
	p.Name, p.net, p.CurChannels = np.Name, np.net, np.CurChannels
	return nil
}
