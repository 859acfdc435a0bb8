package explore

import (
	"reflect"
	"testing"

	"repro/internal/finn"
	"repro/internal/synth"
)

// resetCache empties the evaluation cache and zeroes its counters, so a
// test sees a cold search.
func resetCache() {
	cacheMu.Lock()
	cache = map[evalKey]evalResult{}
	cacheMu.Unlock()
	cacheHits.Store(0)
	cacheMisses.Store(0)
}

// TestIncrementalMatchesFull walks one greedy trajectory and checks every
// step of the searcher's incremental evaluation (Refold + patched
// cycle/resource shares) against a fresh Map+Synthesize of the same
// folding: identical FPS, identical resources, identical bottleneck.
func TestIncrementalMatchesFull(t *testing.T) {
	m := cnv(t)
	resetCache()
	for _, flexible := range []bool{false, true} {
		opts := Options{Flexible: flexible}
		s := newSearcher(m, opts)
		f := MinimalFolding(m)
		for step := 0; step < 60; step++ {
			ev, err := s.eval(f)
			if err != nil {
				t.Fatalf("flexible=%v step %d: %v", flexible, step, err)
			}
			df, err := finn.Map(m, f, finn.Options{Flexible: flexible})
			if err != nil {
				t.Fatal(err)
			}
			acc, err := synth.Synthesize(df, synth.ZCU104)
			if err != nil {
				t.Fatal(err)
			}
			var worst *finn.Module
			var cycles int64 = -1
			for _, mod := range df.Modules {
				if c := mod.CyclesPerFrame(); c > cycles {
					cycles, worst = c, mod
				}
			}
			if ev.fps != df.FPS() {
				t.Fatalf("flexible=%v step %d: FPS %v != fresh %v", flexible, step, ev.fps, df.FPS())
			}
			if ev.res != acc.Res {
				t.Fatalf("flexible=%v step %d: Res %+v != fresh %+v", flexible, step, ev.res, acc.Res)
			}
			if ev.bottleneck != worst.Name {
				t.Fatalf("flexible=%v step %d: bottleneck %q != fresh %q", flexible, step, ev.bottleneck, worst.Name)
			}
			nf, ok := s.unfoldStep(f, ev.bottleneck)
			if !ok {
				break
			}
			f = nf
		}
	}
}

// TestEvalCacheDeterminism reruns the same search and requires (a) an
// identical Result and (b) zero new misses — the whole second trajectory
// must be served from the cache, including the bottleneck choices that
// steer it.
func TestEvalCacheDeterminism(t *testing.T) {
	m := cnv(t)
	resetCache()
	r1, err := TargetFPS(m, 400, Options{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	_, misses1 := CacheStats()
	if misses1 == 0 {
		t.Fatal("cold search reported no cache misses")
	}
	r2, err := TargetFPS(m, 400, Options{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := CacheStats()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("warm search diverged:\n cold: %+v\n warm: %+v", r1, r2)
	}
	if misses2 != misses1 {
		t.Fatalf("warm search missed the cache %d times", misses2-misses1)
	}
	if hits2 == 0 {
		t.Fatal("warm search hit the cache zero times")
	}
	// A lower target walks a prefix of the same trajectory: also all hits.
	if _, err := TargetFPS(m, 100, Options{MaxIterations: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, misses3 := CacheStats(); misses3 != misses1 {
		t.Fatalf("prefix search missed the cache %d times", misses3-misses1)
	}
}

// TestFrontierDeterministic runs the same multi-target sweep serially and
// concurrently (exercised under -race by make test-race) and requires
// index-aligned, identical results.
func TestFrontierDeterministic(t *testing.T) {
	m := cnv(t)
	targets := []float64{50, 100, 200, 400, 600, 1e9}
	resetCache()
	serial := Frontier(m, targets, Options{MaxIterations: 2000}, 1)
	resetCache()
	par := Frontier(m, targets, Options{MaxIterations: 2000}, 4)
	if len(serial) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].TargetFPS != par[i].TargetFPS {
			t.Fatalf("point %d: target %v vs %v", i, serial[i].TargetFPS, par[i].TargetFPS)
		}
		if (serial[i].Err == nil) != (par[i].Err == nil) {
			t.Fatalf("point %d: err %v vs %v", i, serial[i].Err, par[i].Err)
		}
		if serial[i].Err != nil && serial[i].Err.Error() != par[i].Err.Error() {
			t.Fatalf("point %d: err %q vs %q", i, serial[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, par[i].Result) {
			t.Fatalf("point %d diverged:\n serial: %+v\n par:    %+v", i, serial[i].Result, par[i].Result)
		}
	}
}
