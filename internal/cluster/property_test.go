package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// chaosPlan crashes every board of the targeted pools early in epoch 1
// (cluster t=6, epoch-local t=1) with an 8 s repair, so the pools die,
// shed their streams, and rejoin two epochs later.
func chaosPlan(t testing.TB) *fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan("board-crash:p=1,start=6,end=6.3,repair=8")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPropertyPlacementCompleteness: a stream goes unplaced only when no
// pool's remaining usable capacity covers its rate — the placer never
// strands a stream while any pool could hold it. The fleet is sized so
// fragmentation genuinely strands one stream (three equal streams, two
// single-board pools that each fit one).
func TestPropertyPlacementCompleteness(t *testing.T) {
	res := runCluster(t, []StreamSpec{
		{Name: "a", Rate: 400}, {Name: "b", Rate: 400}, {Name: "c", Rate: 400},
	}, Config{Pools: 2, BoardsPerPool: 1, Seed: 1, Epochs: 3})
	if res.Unplaced == 0 {
		t.Fatal("no stream-epoch went unplaced; the property was not exercised")
	}
	byName := map[string]float64{"a": 400, "b": 400, "c": 400}
	for _, rep := range res.Reports {
		for _, name := range rep.Unplaced {
			rate := byName[name]
			for p := range rep.Capacity {
				if rem := rep.Capacity[p] - rep.Assigned[p]; rem >= rate {
					t.Fatalf("epoch %d: %q unplaced while pool %d had %.1f FPS headroom for its %.1f FPS",
						rep.Epoch, name, p, rem, rate)
				}
			}
		}
	}
}

// renderResult stringifies every decision-relevant field of a Result —
// totals, taxonomy, sorted per-tenant stats (dereferenced, so the text
// is address-free), and each epoch's full decision record.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "arr=%v proc=%v drop=%v drops=%+v mig=%d thr=%d unp=%d pool=%+v\n",
		res.Arrived, res.Processed, res.Dropped, res.Drops,
		res.Migrations, res.Throttled, res.Unplaced, res.Pool)
	tenants := make([]string, 0, len(res.Tenants))
	for name := range res.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		fmt.Fprintf(&b, "tenant %s: %+v\n", name, *res.Tenants[name])
	}
	for _, rep := range res.Reports {
		fmt.Fprintf(&b, "epoch %+v\n", rep) // fmt prints map keys sorted
	}
	return b.String()
}

// TestPropertyDeterministicReplay: a fixed seed replays bit-identically
// — same totals, same taxonomy, same per-epoch placement decisions — at
// 1, 2, and NumCPU workers, under a chaos plan that forces migrations.
func TestPropertyDeterministicReplay(t *testing.T) {
	run := func(workers int) string {
		res := runCluster(t, DefaultStreams(1000), Config{
			Pools: 8, Seed: 7, Epochs: 5, Workers: workers,
			FaultPlan: chaosPlan(t), FaultPools: []int{0, 1}, FaultSeed: 42,
		})
		return renderResult(res)
	}
	base := run(1)
	for _, w := range []int{2, runtime.NumCPU()} {
		if got := run(w); got != base {
			t.Fatalf("result diverged at %d workers", w)
		}
	}
}

// TestPropertyOneCausePerDrop: across fault plans of every board-level
// kind, the cluster drop taxonomy stays exclusive and exhaustive —
// ClusterDrops.Total() == Dropped — and frame conservation holds.
func TestPropertyOneCausePerDrop(t *testing.T) {
	plans := map[string]string{
		"none":     "",
		"crash":    "board-crash:p=1,start=6,end=6.3,repair=8",
		"hang":     "board-hang:p=0.05,start=2,repair=1",
		"brownout": "board-brownout:p=0.1,start=2,mag=0.4,repair=2",
		"mixed":    "board-crash:p=0.01,start=2,repair=6;board-brownout:p=0.05,start=0,mag=0.5,repair=1",
	}
	for name, spec := range plans {
		t.Run(name, func(t *testing.T) {
			plan, err := fault.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Rules) == 0 {
				plan = nil
			}
			res := runCluster(t, DefaultStreams(300), Config{
				Pools: 4, Seed: 3, Epochs: 4,
				FaultPlan: plan, FaultPools: []int{0, 1}, FaultSeed: 9,
			})
			if d := math.Abs(res.Drops.Total() - res.Dropped); d > 1e-6 {
				t.Fatalf("taxonomy leak: causes total %.4f != dropped %.4f (%+v)",
					res.Drops.Total(), res.Dropped, res.Drops)
			}
			if res.Processed+res.Dropped > res.Arrived+1e-6 {
				t.Fatalf("conservation broken: processed %.3f + dropped %.3f > arrived %.3f",
					res.Processed, res.Dropped, res.Arrived)
			}
			if res.Processed <= 0 {
				t.Fatal("cluster served nothing")
			}
		})
	}
}

// TestPropertyNoDoubleServe: each epoch's decision record partitions the
// stream set — every stream is placed on exactly one pool, throttled, or
// unplaced, never two of those — so rebalancing can never double-serve
// (or double-drop) a frame. Migrations always move between distinct
// pools and land in the placed set.
func TestPropertyNoDoubleServe(t *testing.T) {
	streams := DefaultStreams(400)
	res := runCluster(t, streams, Config{
		Pools: 6, Seed: 5, Epochs: 5,
		FaultPlan: chaosPlan(t), FaultPools: []int{0, 1}, FaultSeed: 11,
	})
	if res.Migrations == 0 {
		t.Fatal("no migrations; rebalancing was not exercised")
	}
	for _, rep := range res.Reports {
		seen := make(map[string]string, len(streams))
		mark := func(name, as string) {
			if prev, dup := seen[name]; dup {
				t.Fatalf("epoch %d: stream %q is both %s and %s", rep.Epoch, name, prev, as)
			}
			seen[name] = as
		}
		for name := range rep.Placed {
			mark(name, "placed")
		}
		for _, name := range rep.Throttled {
			mark(name, "throttled")
		}
		for _, name := range rep.Unplaced {
			mark(name, "unplaced")
		}
		if len(seen) != len(streams) {
			t.Fatalf("epoch %d: %d of %d streams accounted for", rep.Epoch, len(seen), len(streams))
		}
		for _, m := range rep.Migrated {
			if m.From == m.To {
				t.Fatalf("epoch %d: %q migrated to its own pool %d", rep.Epoch, m.Stream, m.To)
			}
			if p, ok := rep.Placed[m.Stream]; !ok || p != m.To {
				t.Fatalf("epoch %d: migration of %q to pool %d not reflected in placement (%d, %v)",
					rep.Epoch, m.Stream, m.To, p, ok)
			}
		}
	}
}

// TestPropertyPrioritySheds: with equal per-stream rates and demand over
// cluster capacity, admission never throttles a stream while admitting a
// strictly lower-priority one — pressure sheds the bottom classes first.
func TestPropertyPrioritySheds(t *testing.T) {
	var streams []StreamSpec
	for i := 0; i < 30; i++ {
		streams = append(streams, StreamSpec{
			Name: fmt.Sprintf("hi-%d", i), Class: High, Rate: 100, Tenant: "gold",
		}, StreamSpec{
			Name: fmt.Sprintf("lo-%d", i), Class: Low, Rate: 100, Tenant: "bronze",
		})
	}
	res := runCluster(t, streams, Config{Pools: 2, BoardsPerPool: 2, Seed: 2, Epochs: 3})
	if res.Throttled == 0 {
		t.Fatal("overloaded cluster throttled nothing; the property was not exercised")
	}
	class := make(map[string]Priority, len(streams))
	for _, s := range streams {
		class[s.Name] = s.Class
	}
	for _, rep := range res.Reports {
		worstAdmitted := High
		for name := range rep.Placed {
			if class[name] < worstAdmitted {
				worstAdmitted = class[name]
			}
		}
		for _, name := range rep.Unplaced {
			if class[name] < worstAdmitted {
				worstAdmitted = class[name]
			}
		}
		for _, name := range rep.Throttled {
			if class[name] > worstAdmitted {
				t.Fatalf("epoch %d: %s-priority %q throttled while a %s-priority stream was admitted",
					rep.Epoch, class[name], name, worstAdmitted)
			}
		}
	}
}

// TestPropertyTenantShare: a per-tenant share cap throttles the greedy
// tenant's overflow with cause tenant-throttled while the other tenant
// stays fully served.
func TestPropertyTenantShare(t *testing.T) {
	var streams []StreamSpec
	for i := 0; i < 20; i++ {
		streams = append(streams, StreamSpec{
			Name: fmt.Sprintf("greedy-%d", i), Tenant: "greedy", Rate: 50,
		})
	}
	streams = append(streams, StreamSpec{Name: "modest", Tenant: "modest", Rate: 50})
	res := runCluster(t, streams, Config{
		Pools: 2, BoardsPerPool: 2, Seed: 4, Epochs: 2, TenantShare: 0.25,
	})
	if res.Drops.TenantThrottled <= 0 {
		t.Fatal("share cap throttled nothing")
	}
	if g := res.Tenants["greedy"]; g == nil || g.Dropped <= 0 {
		t.Fatalf("greedy tenant not throttled: %+v", g)
	}
	if m := res.Tenants["modest"]; m == nil || m.Dropped > 0 {
		t.Fatalf("modest tenant lost frames under another tenant's pressure: %+v", m)
	}
}

func TestSchedulerValidation(t *testing.T) {
	lib := testLib(t)
	ok := []StreamSpec{{Name: "a", Rate: 30}}
	if _, err := New(nil, ok, Config{Pools: 1}); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := New(lib, nil, Config{Pools: 1}); err == nil {
		t.Error("empty stream set accepted")
	}
	if _, err := New(lib, ok, Config{}); err == nil {
		t.Error("zero pools accepted")
	}
	if _, err := New(lib, []StreamSpec{{Name: "a", Rate: 30}, {Name: "a", Rate: 30}}, Config{Pools: 1}); err == nil {
		t.Error("duplicate stream names accepted")
	}
	if _, err := New(lib, []StreamSpec{{Name: "a", Rate: -1}}, Config{Pools: 1}); err == nil {
		t.Error("invalid stream accepted")
	}
	if _, err := New(lib, ok, Config{Pools: 2, FaultPools: []int{2}}); err == nil {
		t.Error("out-of-range fault pool accepted")
	}
}

// TestConfigValidate: knobs the scheduler cannot honour fail New with an
// error, never a hang or a panic, while zero and the documented
// non-positive values keep selecting each default.
func TestConfigValidate(t *testing.T) {
	lib := testLib(t)
	streams := DefaultStreams(20)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		wantErr string // empty: the run must succeed
	}{
		{"zero values", func(*Config) {}, ""},
		{"negative epoch selects default", func(c *Config) { c.EpochSeconds = -1 }, ""},
		{"headroom 0.5", func(c *Config) { c.Headroom = 0.5 }, ""},
		{"NaN epoch", func(c *Config) { c.EpochSeconds = nan }, "EpochSeconds"},
		{"+Inf epoch", func(c *Config) { c.EpochSeconds = inf }, "EpochSeconds"},
		{"-Inf epoch", func(c *Config) { c.EpochSeconds = -inf }, "EpochSeconds"},
		{"NaN headroom", func(c *Config) { c.Headroom = nan }, "Headroom"},
		{"negative headroom", func(c *Config) { c.Headroom = -0.1 }, "Headroom"},
		{"headroom 1", func(c *Config) { c.Headroom = 1 }, "Headroom"},
		{"headroom 2", func(c *Config) { c.Headroom = 2 }, "Headroom"},
		{"NaN tenant share", func(c *Config) { c.TenantShare = nan }, "TenantShare"},
		{"negative tenant share", func(c *Config) { c.TenantShare = -0.5 }, "TenantShare"},
		{"NaN blackout", func(c *Config) { c.MigrationBlackout = nan }, "MigrationBlackout"},
		{"negative blackout", func(c *Config) { c.MigrationBlackout = -1 }, "MigrationBlackout"},
		{"NaN flush slack", func(c *Config) { c.Batch, c.BatchFlushSlack = 8, nan }, "BatchFlushSlack"},
		{"negative flush slack", func(c *Config) { c.Batch, c.BatchFlushSlack = 8, -0.001 }, "BatchFlushSlack"},
	} {
		cfg := Config{Pools: 2, BoardsPerPool: 2, Epochs: 2, Seed: 1}
		tc.set(&cfg)
		if err := cfg.Validate(); (err == nil) != (tc.wantErr == "") {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
		err := runGuarded(func() error {
			sch, err := New(lib, streams, cfg)
			if err != nil {
				return err
			}
			res, err := sch.Run()
			if err == nil && res.Processed == 0 {
				err = fmt.Errorf("served no frames")
			}
			return err
		})
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.wantErr)
		}
	}
}

// runGuarded turns a panic into an error and gives up on a run that does
// not return within a minute.
func runGuarded(f func() error) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v", p)
			}
		}()
		done <- f()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		return fmt.Errorf("run did not return within a minute")
	}
}
