// Package prune implements AdaFlow's dataflow-aware filter pruning
// (paper §IV-A1): starting from an initial CNN, it removes the
// least-important filters (ℓ1-norm ranking, Li et al. ICLR'17) from every
// convolution at a requested rate, subject to the dataflow constraints
//
//	(ch_out − r_i) mod PE_i       == 0
//	(ch_out − r_i) mod SIMD_{i+1} == 0   (expressed as a per-layer
//	                                      channel granularity)
//
// iteratively decreasing r_i until both hold, exactly as the paper
// describes. The package is independent of internal/finn; callers obtain
// the per-convolution granularity from finn.Folding.ChannelGranularity and
// pass it in, which keeps the dependency graph acyclic.
package prune

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/nn"
)

// Plan records how a prune shrinks each convolution.
type Plan struct {
	// Rate is the requested (nominal) pruning rate in [0, 1).
	Rate float64
	// Removed lists, per convolution, the ascending filter indices to
	// remove (possibly empty when constraints round r_i down to zero). It
	// is nil in a count plan (PlanChannels), which fixes only the shape.
	Removed [][]int
	// Channels is the resulting out-channel count per convolution.
	Channels []int
	// EffectiveRate is the achieved fraction of removed filters over all
	// convolutions (weighted by channel count).
	EffectiveRate float64
}

// Ranking orders each convolution's filters by ascending ℓ1 norm, ties
// broken by index (Li et al.'s importance measure). A plan at any rate
// removes a prefix of every order, so one Ranking of the initial model
// serves a whole rate sweep.
type Ranking [][]int

// RankFilters ranks the filters of every convolution of m.
func RankFilters(m *model.Model) Ranking {
	convs := m.Net.Convs()
	r := make(Ranking, len(convs))
	for i, c := range convs {
		r[i] = rankL1(c.FilterL1Norms())
	}
	return r
}

// PlanChannels computes the channel counts a prune of m at the given
// nominal rate keeps, without choosing which filters go: the result's
// Removed is nil, and ApplyShape builds its shape. The counts and the
// effective rate are exactly those of RankFilters(m).Plan, which reads
// the weights only to rank them. granularity has one entry per
// convolution; pass 1s to disable the dataflow constraints.
func PlanChannels(m *model.Model, rate float64, granularity []int) (*Plan, error) {
	channels, eff, err := planCounts(m.ConvChannels(), rate, granularity, "conv")
	if err != nil {
		return nil, err
	}
	return &Plan{Rate: rate, Channels: channels, EffectiveRate: eff}, nil
}

// Plan computes a pruning plan at the given nominal rate: the counts of
// PlanChannels, and the lowest-ranked filters to remove. granularity has
// one entry per convolution; pass 1s to disable the dataflow constraints
// (free pruning).
func (r Ranking) Plan(rate float64, granularity []int) (*Plan, error) {
	units := make([]int, len(r))
	for i, order := range r {
		units[i] = len(order)
	}
	channels, eff, err := planCounts(units, rate, granularity, "conv")
	if err != nil {
		return nil, err
	}
	return &Plan{Rate: rate, Removed: prefixes(r, channels), Channels: channels, EffectiveRate: eff}, nil
}

// Shrink plans a prune of m at the given rate and builds the pruned model
// (see Apply). r must be m's ranking.
func (r Ranking) Shrink(m *model.Model, rate float64, granularity []int) (*model.Model, *Plan, error) {
	p, err := r.Plan(rate, granularity)
	if err != nil {
		return nil, nil, err
	}
	pm, err := Apply(m, p)
	if err != nil {
		return nil, nil, err
	}
	return pm, p, nil
}

// Shrink builds m pruned at the given rate, with its weights, and returns
// it with its plan. The original is untouched. It ranks m's filters on
// every call: sweeps over many rates rank once with RankFilters and call
// Ranking.Shrink instead, and callers that read only the pruned shape plan
// with PlanChannels and build with ApplyShape, which rank nothing.
func Shrink(m *model.Model, rate float64, granularity []int) (*model.Model, *Plan, error) {
	return RankFilters(m).Shrink(m, rate, granularity)
}

// Apply builds the model a plan prunes m to, leaving m untouched: each
// convolution loses its planned filters, the per-channel layers after it
// (ScaleShift, MaxPool) shrink to match, and its consumer (the next
// convolution, or the first dense layer, in groups of the flattened
// spatial footprint) loses the matching inputs.
func Apply(m *model.Model, p *Plan) (*model.Model, error) {
	if n := len(m.Net.Convs()); len(p.Removed) != n {
		return nil, fmt.Errorf("prune: plan has %d conv entries for %d convolutions", len(p.Removed), n)
	}
	pm, err := gather(m, p.Removed, nil)
	if err != nil {
		return nil, err
	}
	pm.PruneRate = p.Rate
	return pm, nil
}

// ApplyShape builds the shape of the model a plan prunes m to, from
// p.Channels alone: the same layers with the same geometry, channel
// counts and quantizers as Apply would build, but no parameter data (and
// p.Removed is not read). It walks the layers once, carrying how many
// channels the last producer dropped and the current spatial footprint,
// as gather does. It fails when p has the wrong arity, when a count is
// not in (0, OutC], or when a pruned producer has no consumer. Mapping
// and synthesis (internal/finn, internal/synth) and channel-count
// evaluators read nothing else; the result cannot run inference or
// training.
func ApplyShape(m *model.Model, p *Plan) (*model.Model, error) {
	if n := len(m.Net.Convs()); len(p.Channels) != n {
		return nil, fmt.Errorf("prune: plan has %d conv entries for %d convolutions", len(p.Channels), n)
	}
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		return nil, err
	}
	net := &nn.Network{Layers: make([]*nn.NamedLayer, 0, len(m.Net.Layers))}
	var (
		dropped int             // channels the last producer dropped
		foot    = m.InH * m.InW // inputs per channel of the current activation
		ci      int
	)
	for li, nl := range m.Net.Layers {
		var l nn.Layer
		switch x := nl.Layer.(type) {
		case *nn.Conv2D:
			kept := p.Channels[ci]
			if kept <= 0 || kept > x.OutC {
				return nil, fmt.Errorf("prune: conv %d channels %d out of (0,%d]", ci, kept, x.OutC)
			}
			c := &nn.Conv2D{ID: x.ID, Geom: x.Geom, OutC: kept, Quant: x.Quant, PerChannel: x.PerChannel}
			c.Geom.InC -= dropped
			l, dropped = c, x.OutC-kept
			ci++
		case *nn.Dense:
			l = &nn.Dense{ID: x.ID, In: x.In - dropped*foot, Out: x.Out, Flat: x.Flat, Quant: x.Quant}
			dropped, foot = 0, 1
		case *nn.ScaleShift:
			if x.Channels <= dropped {
				return nil, fmt.Errorf("prune: scaleshift %q has %d channels, %d dropped", x.ID, x.Channels, dropped)
			}
			l = &nn.ScaleShift{ID: x.ID, Channels: x.Channels - dropped}
		case *nn.MaxPool2D:
			l, err = x.Pruned(x.Geom.InC - dropped)
		case interface{ CloneLayer() nn.Layer }:
			l = x.CloneLayer()
		default:
			return nil, fmt.Errorf("prune: layer %d (%s) does not support pruning", nl.Index, x.Name())
		}
		if err != nil {
			return nil, err
		}
		if sh := shapes[li]; len(sh) == 3 {
			foot = sh[1] * sh[2]
		}
		net.Append(l)
	}
	if dropped > 0 {
		return nil, errNoConsumer
	}
	pm := *m
	pm.Net = net
	pm.PruneRate = p.Rate
	pm.BaseChannels = append([]int(nil), m.BaseChannels...)
	return &pm, nil
}

// errNoConsumer reports a pruned last producer: nothing downstream can
// drop the matching inputs.
var errNoConsumer = fmt.Errorf("prune: the last pruned layer has no downstream consumer")

// gather builds a copy of m without the units listed per convolution in
// convRm and per dense layer in denseRm (nil lists, or lists shorter than
// the layer count, remove nothing). It walks the layers once, carrying the
// last producer's removed channels to the layers that consume them. It
// allocates every parameter once at its final size, and no tensor of the
// result aliases m.
func gather(m *model.Model, convRm, denseRm [][]int) (*model.Model, error) {
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		return nil, err
	}
	net := &nn.Network{Layers: make([]*nn.NamedLayer, 0, len(m.Net.Layers))}
	var (
		pending []int           // channels the last producer dropped
		foot    = m.InH * m.InW // inputs per channel of the current activation
		ci, di  int
	)
	for li, nl := range m.Net.Layers {
		var l nn.Layer
		switch x := nl.Layer.(type) {
		case *nn.Conv2D:
			rm := at(convRm, ci)
			ci++
			l, err = x.Pruned(rm, pending)
			pending = rm
		case *nn.Dense:
			rm := at(denseRm, di)
			di++
			l, err = x.Pruned(rm, pending, foot)
			pending, foot = rm, 1
		case *nn.ScaleShift:
			l, err = x.Pruned(pending)
		case *nn.MaxPool2D:
			l, err = x.Pruned(x.Geom.InC - len(pending))
		case interface{ CloneLayer() nn.Layer }:
			l = x.CloneLayer()
		default:
			return nil, fmt.Errorf("prune: layer %d (%s) does not support pruning", nl.Index, x.Name())
		}
		if err != nil {
			return nil, err
		}
		if sh := shapes[li]; len(sh) == 3 {
			foot = sh[1] * sh[2]
		}
		net.Append(l)
	}
	if len(pending) > 0 {
		return nil, errNoConsumer
	}
	pm := *m
	pm.Net = net
	pm.BaseChannels = append([]int(nil), m.BaseChannels...)
	return &pm, nil
}

// at returns rms[i], or nil past the end.
func at(rms [][]int, i int) []int {
	if i < len(rms) {
		return rms[i]
	}
	return nil
}

// rankL1 returns unit indices ordered by ascending ℓ1 norm, ties by index.
func rankL1(norms []float64) []int {
	idx := make([]int, len(norms))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool {
		if norms[idx[a]] != norms[idx[b]] {
			return norms[idx[a]] < norms[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// planCounts plans a prune at the nominal rate over layers of units[i]
// units each. Each layer drops rate·n units rounded down, then iteratively
// fewer until the survivors are a positive multiple of its granularity
// (paper §IV-A1). It returns the surviving count per layer and the
// achieved fraction of units removed over all layers.
func planCounts(units []int, rate float64, granularity []int, kind string) ([]int, float64, error) {
	if !(rate >= 0 && rate < 1) {
		return nil, 0, fmt.Errorf("prune: rate %v out of [0,1)", rate)
	}
	if len(granularity) != len(units) {
		return nil, 0, fmt.Errorf("prune: %d granularity entries for %d %s layers", len(granularity), len(units), kind)
	}
	kept := make([]int, len(units))
	var total, dropped int
	for i, n := range units {
		g := granularity[i]
		if g <= 0 {
			return nil, 0, fmt.Errorf("prune: %s %d granularity %d must be positive", kind, i, g)
		}
		r := int(rate * float64(n))
		for r > 0 && ((n-r)%g != 0 || n-r <= 0) {
			r--
		}
		kept[i] = n - r
		total += n
		dropped += r
	}
	var eff float64
	if total > 0 {
		eff = float64(dropped) / float64(total)
	}
	return kept, eff, nil
}

// prefixes returns, per layer, the len(order)−kept[i] lowest-ranked units
// of its order, sorted by index (nil when none): the units a plan with
// those kept counts removes.
func prefixes(orders [][]int, kept []int) [][]int {
	removed := make([][]int, len(orders))
	for i, order := range orders {
		if r := len(order) - kept[i]; r > 0 {
			rm := append([]int(nil), order[:r]...)
			sort.Ints(rm)
			removed[i] = rm
		}
	}
	return removed
}

// Ones returns a granularity slice of n ones (free pruning).
func Ones(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = 1
	}
	return g
}
