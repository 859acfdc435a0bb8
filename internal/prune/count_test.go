package prune

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
)

// convStack returns a model whose convolutions have the given filter
// counts: all PlanChannels reads. It has no weights and cannot run.
func convStack(units []int) *model.Model {
	layers := make([]nn.Layer, len(units))
	for i, n := range units {
		layers[i] = &nn.Conv2D{ID: fmt.Sprint(i), OutC: n}
	}
	return &model.Model{Name: "stack", Net: nn.NewNetwork(layers...)}
}

// sameCountPlan checks that PlanChannels and Ranking.Plan agree on units
// (the orders of r): equal Channels and EffectiveRate, or equal error
// text. On success it also checks the rank plan removes exactly the
// counted filters, and that the count plan lists none.
func sameCountPlan(units []int, r Ranking, rate float64, gran []int) error {
	cp, cerr := PlanChannels(convStack(units), rate, gran)
	rp, rerr := r.Plan(rate, gran)
	if cerr != nil || rerr != nil {
		if fmt.Sprint(cerr) != fmt.Sprint(rerr) {
			return fmt.Errorf("errors differ: PlanChannels %v, Ranking.Plan %v", cerr, rerr)
		}
		return nil
	}
	if !reflect.DeepEqual(cp.Channels, rp.Channels) || cp.EffectiveRate != rp.EffectiveRate || cp.Rate != rp.Rate {
		return fmt.Errorf("PlanChannels %v at %v, Ranking.Plan %v at %v", cp.Channels, cp.EffectiveRate, rp.Channels, rp.EffectiveRate)
	}
	if cp.Removed != nil {
		return fmt.Errorf("count plan lists removals %v", cp.Removed)
	}
	for i, n := range units {
		if len(rp.Removed[i]) != n-cp.Channels[i] {
			return fmt.Errorf("layer %d: %d removed for %d of %d kept", i, len(rp.Removed[i]), cp.Channels[i], n)
		}
	}
	return nil
}

// permutations returns a random ranking of layers of units[i] filters.
func permutations(rng *rand.Rand, units []int) Ranking {
	r := make(Ranking, len(units))
	for i, n := range units {
		r[i] = rng.Perm(n)
	}
	return r
}

// TestPlanChannelsMatchesRankingPlan: the count plan and the ranked plan
// share one constraint step, so for random unit counts, rates and
// granularities (valid or not) they give the same counts, effective rate
// and error.
func TestPlanChannelsMatchesRankingPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rates := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, -0.25, 0, 0.5, 0.85, 0.999}
	for iter := 0; iter < 2000; iter++ {
		units := make([]int, rng.Intn(6))
		for i := range units {
			units[i] = rng.Intn(300)
		}
		gran := make([]int, len(units)+rng.Intn(3)/2) // an arity mismatch one time in three
		for i := range gran {
			gran[i] = rng.Intn(40) - 2 // zero and negative ones included
		}
		rate := rng.Float64()
		if iter%3 == 0 {
			rate = rates[rng.Intn(len(rates))]
		}
		if err := sameCountPlan(units, permutations(rng, units), rate, gran); err != nil {
			t.Fatalf("units %v rate %v gran %v: %v", units, rate, gran, err)
		}
	}
}

// FuzzPlanChannels: for any unit counts (one byte each), rate and
// granularities (one signed byte each), PlanChannels and Ranking.Plan
// agree and neither panics.
func FuzzPlanChannels(f *testing.F) {
	f.Add([]byte{64, 128}, 0.5, []byte{8, 16})
	f.Add([]byte{8, 16}, 0.3, []byte{4, 8})
	f.Add([]byte{3}, 0.99, []byte{200})
	f.Add([]byte{0, 5}, 0.5, []byte{1, 1})
	f.Add([]byte{10}, 0.5, []byte{0})
	f.Add([]byte{10, 10}, 0.5, []byte{1})
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, -0.5} {
		f.Add([]byte{16, 32}, rate, []byte{2, 4})
	}
	f.Fuzz(func(t *testing.T, unitBytes []byte, rate float64, granBytes []byte) {
		if len(unitBytes) > 16 || len(granBytes) > 16 {
			return
		}
		units := make([]int, len(unitBytes))
		for i, b := range unitBytes {
			units[i] = int(b)
		}
		gran := make([]int, len(granBytes))
		for i, b := range granBytes {
			gran[i] = int(int8(b))
		}
		r := make(Ranking, len(units))
		for i, n := range units {
			r[i] = make([]int, n)
			for j := range r[i] {
				r[i][j] = j
			}
		}
		if err := sameCountPlan(units, r, rate, gran); err != nil {
			t.Fatalf("units %v rate %v gran %v: %v", units, rate, gran, err)
		}
	})
}

// TestPlansRejectBadRates: a rate outside [0, 1), NaN included, fails
// every planner and both Shrinks with the same error, before any unit
// count is computed.
func TestPlansRejectBadRates(t *testing.T) {
	m, mlp := tiny(t), tinyMLP(t)
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1, 1.5} {
		want := fmt.Sprintf("prune: rate %v out of [0,1)", rate)
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"Ranking.Plan", func() error { _, err := RankFilters(m).Plan(rate, Ones(2)); return err }},
			{"PlanChannels", func() error { _, err := PlanChannels(m, rate, Ones(2)); return err }},
			{"PlanNeurons", func() error { _, err := PlanNeurons(mlp, rate, Ones(2)); return err }},
			{"Shrink", func() error { _, _, err := Shrink(m, rate, Ones(2)); return err }},
			{"ShrinkDense", func() error { _, _, err := ShrinkDense(mlp, rate, Ones(2)); return err }},
		} {
			if err := tc.call(); fmt.Sprint(err) != want {
				t.Errorf("%s at rate %v: err = %v, want %q", tc.name, rate, err, want)
			}
		}
	}
}

// TestApplyShapeRejectsInvalidCountPlans: ApplyShape reads only
// plan.Channels, and every count plan no prune could produce fails with
// an error naming what is wrong.
func TestApplyShapeRejectsInvalidCountPlans(t *testing.T) {
	m := tiny(t) // convs of 8 and 16 filters
	for _, tc := range []struct {
		name     string
		m        *model.Model
		channels []int
		want     string
	}{
		{"no counts", m, nil, "plan has 0 conv entries for 2"},
		{"short plan", m, []int{8}, "plan has 1 conv entries for 2"},
		{"long plan", m, []int{8, 16, 16}, "plan has 3 conv entries for 2"},
		{"all filters", m, []int{0, 16}, "conv 0 channels 0 out of (0,8]"},
		{"negative", m, []int{8, -1}, "conv 1 channels -1 out of (0,16]"},
		{"above OutC", m, []int{9, 16}, "conv 0 channels 9 out of (0,8]"},
		{"no consumer", headless(t), []int{1}, "no downstream consumer"},
	} {
		_, err := ApplyShape(tc.m, &Plan{Rate: 0.5, Channels: tc.channels})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ApplyShape err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
