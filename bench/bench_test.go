package main

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/manager"
	"repro/internal/parallel"
)

// TestWorkloadsSmoke runs every workload for its check operations only: the
// run is correct (invariants hold and seed 1 matches its digest), it
// reports every end-to-end metric of BENCHMARK.json with its unit, traced
// operations reproduce the untraced outputs exactly, and the workloads'
// traced layers together yield exactly the per-layer metrics of
// BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetAll(runtime.NumCPU())
	var layerNames []string
	for _, w := range workloads {
		rec, err := runOne(spec, w, options{seed: 1, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Result.Correct || rec.Result.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d info=%v", w.name, rec.Result.Correct, rec.Result.Failed, rec.Info)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := rec.Result.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w.name, m.Name, v, m.Unit)
			}
		}

		r, err := w.setup(1)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(w.name, false)
		traced := runLoop(w, r, 0, w.checkOps, tr)
		if traced.failed != 0 {
			t.Errorf("%s: %d traced failures: %v", w.name, traced.failed, traced.firstErr)
		}
		if traced.digest() != rec.Info["digest"] {
			t.Errorf("%s: traced digest %s, untraced %v", w.name, traced.digest(), rec.Info["digest"])
		}
		layers, err := w.layers(r, tr)
		if err != nil {
			t.Fatal(err)
		}
		for name := range layers {
			layerNames = append(layerNames, name)
		}
	}
	var want []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	sort.Strings(layerNames)
	if !slices.Equal(layerNames, want) {
		t.Errorf("traced layers report\n%v\nBENCHMARK.json lists\n%v", layerNames, want)
	}
}

// TestTimedControllerIsTransparent runs serving operations through the
// bare AdaFlow controller and through the timing wrapper, at one worker
// and at every CPU: the results must be bit-identical.
func TestTimedControllerIsTransparent(t *testing.T) {
	defer parallel.SetAll(runtime.NumCPU())
	for _, event := range []bool{false, true} {
		r, err := newEdgeRunner(1, event)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, runtime.NumCPU()} {
			parallel.SetAll(workers)
			for i := 0; i < len(r.scns); i++ {
				run := func(wrap bool) *edge.Result {
					mgr, err := manager.New(r.lib, manager.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					var ctl edge.Controller = edge.NewAdaFlow(mgr)
					if wrap {
						ctl = timedController{edge.NewAdaFlow(mgr), newTracer("test", false)}
					}
					res, err := r.run(i, ctl)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				if bare, wrapped := run(false), run(true); !reflect.DeepEqual(bare, wrapped) {
					t.Errorf("event=%v workers=%d op %d: wrapped run differs\nbare    %+v\nwrapped %+v",
						event, workers, i, bare.RunStats, wrapped.RunStats)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestVerdict pins the -compare rule: a gain needs ten alternated pairs,
// nine tenths of them won and a median gap wider than the parent's
// quartile spread; a wide spread is unresolved unless every change run
// reads better than every parent run.
func TestVerdict(t *testing.T) {
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	ramp := func(n int, base, step float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + step*float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		name       string
		m          metricSpec
		pv, cv     []float64
		alternated bool
		want       string
	}{
		{"gain", higher, ramp(10, 100, 0.1), ramp(10, 110, 0.1), true, "gain"},
		{"gain, lower is better", lower, ramp(10, 10, 0.01), ramp(10, 9, 0.01), true, "gain"},
		{"nine pairs", higher, ramp(9, 100, 0.1), ramp(9, 110, 0.1), true, "insufficient pairs"},
		{"one pair", higher, []float64{100}, []float64{110}, true, "insufficient pairs"},
		{"same order every pair", higher, ramp(10, 100, 0.1), ramp(10, 110, 0.1), false, "order not alternated"},
		{"regression", higher, ramp(10, 100, 0.1), ramp(10, 80, 0.1), true, "regression"},
		{"no change", higher, ramp(10, 100, 0.1), ramp(10, 100.05, 0.1), true, "no change"},
		{"wide spread", higher, ramp(10, 80, 5), ramp(10, 81, 5), true, "unresolved"},
		{"wide spread, every run better", higher, ramp(10, 80, 5), ramp(10, 126, 0.1), true, "no regression"},
	} {
		if got, _, _, _ := verdict(c.m, c.pv, c.cv, c.alternated); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestAlternated checks that pairs count as alternated only when each pair
// follows the previous one and the side that ran first switches.
func TestAlternated(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(secs ...int) []runRecord {
		rs := make([]runRecord, len(secs))
		for i, s := range secs {
			rs[i].Start = t0.Add(time.Duration(s) * time.Second)
		}
		return rs
	}
	for _, c := range []struct {
		name   string
		pr, cr []runRecord
		want   bool
	}{
		{"alternating", at(0, 3, 4, 7), at(1, 2, 5, 6), true},
		{"parent first every pair", at(0, 2, 4), at(1, 3, 5), false},
		{"every parent run before every change run", at(0, 1, 2), at(3, 4, 5), false},
		{"no start times", make([]runRecord, 2), make([]runRecord, 2), false},
	} {
		if got := alternated(c.pr, c.cr); got != c.want {
			t.Errorf("%s: alternated = %v, want %v", c.name, got, c.want)
		}
	}
}
