package multiedge

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/manager"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// crashTwoPlan kills boards 0 and 1 at fixed times with repairs beyond the
// run end — the ISSUE's acceptance scenario.
func crashTwoPlan(t testing.TB) *fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan(
		"board-crash:p=1,board=0,start=5,end=5.05,repair=60;" +
			"board-crash:p=1,board=1,start=12,end=12.05,repair=60")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestChaosAcceptanceCrashTwoOfFour is the PR's acceptance scenario: with
// 4 boards and a plan that crashes 2 of them, the pool serves the full
// scenario-1+2 stream with no panic, every dropped frame carries a cause,
// the pool's reported capacity and accuracy track the survivors, and the
// identical seed reproduces the identical trace byte for byte.
func TestChaosAcceptanceCrashTwoOfFour(t *testing.T) {
	lib := paperLib(t)
	plan := crashTwoPlan(t)

	runOnce := func() (*edge.Result, *Pool, string) {
		p, err := NewSupervisedPool(lib, Config{Boards: 4, Manager: manager.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		res, err := edge.Run(edge.Scenario12(), p, edge.SimConfig{
			Seed:            1,
			FaultConfig:     edge.FaultConfig{Plan: plan, Seed: 1},
			AdmissionConfig: edge.AdmissionConfig{Deadline: 0.05},
		}, edge.WithTracer(obs.New(sink, obs.Sample(1))))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, p, buf.String()
	}

	res, p, trace1 := runOnce()
	if res.Pool.BoardsDied != 2 {
		t.Errorf("boards died = %d, want 2", res.Pool.BoardsDied)
	}
	if res.Pool.Failovers != 2 {
		t.Errorf("failovers = %d, want 2", res.Pool.Failovers)
	}
	if res.Faults.BoardCrashes != 2 {
		t.Errorf("injected crashes = %d, want 2", res.Faults.BoardCrashes)
	}
	if res.Processed <= 0 {
		t.Fatal("pool served nothing")
	}
	// Every dropped frame carries exactly one cause.
	if d := math.Abs(res.Dropped - res.Drops.Total()); d > 1e-6 {
		t.Errorf("dropped %.3f != sum of causes %.3f", res.Dropped, res.Drops.Total())
	}
	// The pool's reported topology tracks the survivors.
	if got, want := p.State(0), Dead; got != want {
		t.Errorf("board 0 state = %v, want %v", got, want)
	}
	if got, want := p.State(1), Dead; got != want {
		t.Errorf("board 1 state = %v, want %v", got, want)
	}
	s, _, _, _ := p.React(edge.Scenario12().Duration, 600)
	if s.Label != "pool[2/4]" {
		t.Errorf("post-run serving label = %q, want pool[2/4]", s.Label)
	}
	// Capacity equals the two survivors' summed rates, accuracy one of
	// the library's entry accuracies (only survivors contribute).
	if s.FPS <= 0 {
		t.Error("surviving capacity is zero")
	}

	res2, _, trace2 := runOnce()
	if !reflect.DeepEqual(res.RunStats, res2.RunStats) {
		t.Errorf("identical seed changed RunStats:\n1st %+v\n2nd %+v", res.RunStats, res2.RunStats)
	}
	if trace1 != trace2 {
		t.Error("identical seed did not reproduce the identical trace")
	}
}

// TestChaosPropertyKillHalf is the property suite: under a seeded plan
// that can kill up to half the boards at random times, for every seed the
// stream keeps being served, frame conservation holds (every frame is
// exactly one of served / shed-with-cause / still queued at run end), and
// the same seed replays bit-identically.
func TestChaosPropertyKillHalf(t *testing.T) {
	lib := paperLib(t)
	// Up to ⌊4/2⌋ = 2 deaths: two targeted probabilistic rules; whether
	// and when each fires depends on the fault seed's draws.
	plan, err := fault.ParsePlan(
		"board-crash:p=0.01,board=0,start=2,end=20,repair=100;" +
			"board-crash:p=0.01,board=1,start=2,end=20,repair=100;" +
			"board-brownout:p=0.01,start=2,end=20,mag=0.5,repair=2;" +
			"frame-corrupt:p=0.01,start=2,end=20,mag=0.3,repair=1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (*edge.Result, string) {
		p, err := NewSupervisedPool(lib, Config{Boards: 4, Manager: manager.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		res, err := edge.Run(edge.Scenario12(), p, edge.SimConfig{
			Seed:            seed,
			FaultConfig:     edge.FaultConfig{Plan: plan, Seed: seed * 31},
			RecordTrace:     true,
			AdmissionConfig: edge.AdmissionConfig{Deadline: 0.1},
		}, edge.WithTracer(obs.New(sink, obs.Sample(1))))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	totalDied := 0
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		res, trace := run(seed)
		totalDied += res.Pool.BoardsDied
		if res.Pool.BoardsDied > 2 {
			t.Fatalf("seed %d: %d boards died, plan can kill at most 2", seed, res.Pool.BoardsDied)
		}
		// (a) The stream keeps being served: survivors carry it.
		if res.Processed <= 0 {
			t.Fatalf("seed %d: nothing served", seed)
		}
		last := res.Trace[len(res.Trace)-1]
		mid := res.Trace[len(res.Trace)/2]
		if last.ProcessedCum <= mid.ProcessedCum {
			t.Fatalf("seed %d: serving stopped in the second half of the run", seed)
		}
		// (b) Conservation: every frame is served, shed with a cause, or
		// still queued when the run ends.
		if d := math.Abs(res.Dropped - res.Drops.Total()); d > 1e-6 {
			t.Fatalf("seed %d: dropped %.3f != causes total %.3f", seed, res.Dropped, res.Drops.Total())
		}
		if res.Processed+res.Dropped > res.Arrived+1e-6 {
			t.Fatalf("seed %d: processed %.3f + dropped %.3f > arrived %.3f",
				seed, res.Processed, res.Dropped, res.Arrived)
		}
		// (c) Same seed ⇒ bit-identical replay (stats and full trace).
		res2, trace2 := run(seed)
		if !reflect.DeepEqual(res.RunStats, res2.RunStats) {
			t.Fatalf("seed %d: replay changed RunStats", seed)
		}
		if trace != trace2 {
			t.Fatalf("seed %d: replay changed the trace", seed)
		}
	}
	if totalDied == 0 {
		t.Fatal("no board died across any seed; the property suite exercised nothing")
	}
}

// TestPoolStandbyPromotionAndRecovery: a crashed board's slot is filled by
// the hot standby, and the repaired board rejoins the pool.
func TestPoolStandbyPromotionAndRecovery(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan("board-crash:p=1,board=0,start=5,end=5.05,repair=5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSupervisedPool(lib, Config{Boards: 3, Standby: 1, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := edge.Run(edge.Scenario1(), p, edge.SimConfig{Seed: 1, FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.BoardsDied != 1 || res.Pool.Failovers != 1 {
		t.Errorf("died=%d failovers=%d, want 1/1", res.Pool.BoardsDied, res.Pool.Failovers)
	}
	if res.Pool.StandbyPromotions < 1 {
		t.Errorf("standby promotions = %d, want >= 1", res.Pool.StandbyPromotions)
	}
	if res.Pool.BoardsRecovered != 1 {
		t.Errorf("boards recovered = %d, want 1", res.Pool.BoardsRecovered)
	}
	if got := p.State(0); got != Healthy {
		t.Errorf("repaired board state = %v, want healthy", got)
	}
}

// TestPoolQuorumDegradedMode: losing 3 of 4 boards breaks quorum; the
// survivor serves under a relaxed accuracy threshold instead of shedding
// the stream, and the mode is counted and visible.
func TestPoolQuorumDegradedMode(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan(
		"board-crash:p=1,board=0,start=5,end=5.05,repair=60;" +
			"board-crash:p=1,board=1,start=6,end=6.05,repair=60;" +
			"board-crash:p=1,board=2,start=7,end=7.05,repair=60")
	if err != nil {
		t.Fatal(err)
	}
	cfg := manager.DefaultConfig()
	base := cfg.AccuracyThreshold
	relax := 0.05
	p, err := NewSupervisedPool(lib, Config{Boards: 4, Quorum: 2, DegradedRelax: relax, Manager: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := edge.Run(edge.Scenario1(), p, edge.SimConfig{Seed: 1, FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.DegradedEntries < 1 {
		t.Fatalf("degraded entries = %d, want >= 1", res.Pool.DegradedEntries)
	}
	if !p.Degraded() {
		t.Fatal("pool not degraded with 1 of 4 boards alive")
	}
	if got, want := p.boards[3].mgr.AccuracyThreshold(), base-relax; math.Abs(got-want) > 1e-9 {
		t.Errorf("survivor threshold = %v, want relaxed %v", got, want)
	}
	if res.Processed <= 0 {
		t.Fatal("degraded pool shed the whole stream")
	}
}

// TestPoolHangSuspectDeadRecover drives the full health state machine from
// a hang: missed heartbeats escalate healthy → suspect → dead, and the
// board rejoins once responsive again.
func TestPoolHangSuspectDeadRecover(t *testing.T) {
	lib := paperLib(t)
	// One 2 s hang of board 0 at t=5: at a 0.1 s heartbeat and
	// SuspectAfter=2, it is suspect after 2 missed beats and dead after 4.
	plan, err := fault.ParsePlan("board-hang:p=1,board=0,start=5,end=5.05,repair=2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(4096)
	poolOnly := obs.Filter(ring, func(ev obs.Event) bool { return ev.Cat == obs.PoolCat })
	res, err := edge.Run(edge.Scenario1(), p, edge.SimConfig{Seed: 1, FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1}},
		edge.WithTracer(obs.New(poolOnly)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.BoardHangs < 1 {
		t.Fatal("hang never injected")
	}
	if res.Pool.BoardsDied != 1 || res.Pool.BoardsRecovered != 1 {
		t.Errorf("died=%d recovered=%d, want 1/1", res.Pool.BoardsDied, res.Pool.BoardsRecovered)
	}
	// The state machine walked healthy → suspect → dead → recovering →
	// healthy; the transitions are in the trace.
	want := map[string]bool{"healthy>suspect": false, "suspect>dead": false, "dead>recovering": false, "recovering>healthy": false}
	for _, ev := range ring.Events() {
		if ev.Cat != obs.PoolCat || ev.Name != "board-state" {
			continue
		}
		from, _ := ev.Attr("from")
		to, _ := ev.Attr("to")
		key := fmt.Sprintf("%v>%v", from.Value(), to.Value())
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("missing state transition %s in trace", key)
		}
	}
	if got := p.State(0); got != Healthy {
		t.Errorf("board 0 final state = %v, want healthy", got)
	}
}

// TestPoolEffectiveCapacityWeighting pins the satellite fix: pool accuracy
// weights by what is currently serving. A board corrupting half its frames
// must pull the reported accuracy below the fault-free run's; a board
// mid-reconfiguration contributes no accuracy weight.
func TestPoolEffectiveCapacityWeighting(t *testing.T) {
	lib := paperLib(t)
	mkRun := func(spec string) *edge.Result {
		var plan *fault.Plan
		if spec != "" {
			var err error
			if plan, err = fault.ParsePlan(spec); err != nil {
				t.Fatal(err)
			}
		}
		p, err := NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := edge.Run(edge.Scenario1(), p, edge.SimConfig{Seed: 1, FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := mkRun("")
	corrupt := mkRun("frame-corrupt:p=1,board=0,start=5,end=5.05,mag=0.5,repair=10")
	if corrupt.AvgAccuracy >= clean.AvgAccuracy {
		t.Errorf("corrupting half of board 0's frames did not lower pool accuracy: %.4f >= %.4f",
			corrupt.AvgAccuracy, clean.AvgAccuracy)
	}

	// Unit check of the weighting itself: a stalled board carries zero
	// effective capacity, so the aggregate accuracy is the live board's.
	b0 := &board{fps: 100, accuracy: 0.9, serving: true, state: Healthy, stallUntil: 10}
	b1 := &board{fps: 100, accuracy: 0.5, serving: true, state: Healthy}
	now := 5.0
	var accW, effSum float64
	for _, b := range []*board{b0, b1} {
		eff := b.effFPS(now)
		accW += b.effAccuracy(now) * eff
		effSum += eff
	}
	if effSum != 100 {
		t.Fatalf("effective capacity = %v, want 100 (stalled board excluded)", effSum)
	}
	if got := accW / effSum; got != 0.5 {
		t.Fatalf("effective accuracy = %v, want the live board's 0.5", got)
	}
}

// TestPoolBlackoutServesNothingWithCause: killing every board yields a
// zero-capacity pool whose shed frames are all attributed to
// no-healthy-board, and the stream resumes after repair.
func TestPoolBlackoutServesNothingWithCause(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan("board-crash:p=1,start=5,end=5.05,repair=5")
	if err != nil {
		t.Fatal(err)
	}
	// AnyBoard rule: one heartbeat kills both boards at once.
	p, err := NewSupervisedPool(lib, Config{Boards: 2, Quorum: 1, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := edge.Run(edge.Scenario1(), p, edge.SimConfig{Seed: 1, FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.BoardsDied != 2 {
		t.Fatalf("boards died = %d, want 2", res.Pool.BoardsDied)
	}
	if res.Drops.NoHealthyBoard <= 0 {
		t.Fatalf("no-healthy-board drops = %.1f, want > 0 during blackout", res.Drops.NoHealthyBoard)
	}
	if res.Pool.BoardsRecovered != 2 {
		t.Errorf("boards recovered = %d, want 2", res.Pool.BoardsRecovered)
	}
	if res.Processed <= 0 {
		t.Fatal("stream never resumed after repair")
	}
}

// overloadScenario is a short deterministic workload far beyond one
// board's capacity, for the overload-shed golden.
func overloadScenario() edge.Scenario {
	return edge.Scenario{
		Name: "pool-overload", Duration: 3, Devices: 60, PerDeviceFPS: 30,
		Phases: []edge.Phase{{Start: 0, Deviation: 0, Interval: 5}},
	}
}

// TestGoldenPoolTraces pins the supervision decision stream of a failover
// scenario and the shed stream (drop cause events) of an overload
// scenario. A diff means robustness semantics changed: inspect it, then
// refresh with
//
//	go test ./internal/multiedge/ -run Golden -update
func TestGoldenPoolTraces(t *testing.T) {
	lib := paperLib(t)
	cases := []struct {
		file string
		run  func(tr *obs.Trace) error
		keep func(ev obs.Event) bool
	}{
		{
			file: "pool_failover.golden",
			run: func(tr *obs.Trace) error {
				plan, err := fault.ParsePlan(
					"board-crash:p=1,board=0,start=5,end=5.05,repair=30;" +
						"board-crash:p=1,board=1,start=12,end=12.05,repair=5;" +
						"board-hang:p=1,board=2,start=18,end=18.05,repair=1")
				if err != nil {
					return err
				}
				p, err := NewSupervisedPool(lib, Config{Boards: 4, Standby: 1, Manager: manager.DefaultConfig()})
				if err != nil {
					return err
				}
				_, err = edge.Run(edge.Scenario12(), p, edge.SimConfig{
					Seed:        1,
					FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1},
				}, edge.WithTracer(tr))
				return err
			},
			keep: func(ev obs.Event) bool { return ev.Cat == obs.PoolCat },
		},
		{
			file: "pool_overload_shed.golden",
			run: func(tr *obs.Trace) error {
				p, err := NewSupervisedPool(lib, Config{Boards: 1, Manager: manager.DefaultConfig()})
				if err != nil {
					return err
				}
				_, err = edge.Run(overloadScenario(), p, edge.SimConfig{
					Seed:            1,
					AdmissionConfig: edge.AdmissionConfig{QueueFrames: 16, Deadline: 0.005},
				}, edge.WithTracer(tr))
				return err
			},
			keep: func(ev obs.Event) bool {
				return ev.Cat == obs.EdgeCat && ev.Name == "drop"
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			sink := obs.NewJSONL(&buf)
			// The kept events are decision-grade Emits (never sampled), so
			// the golden is sampling-independent.
			if err := tc.run(obs.New(obs.Filter(sink, tc.keep))); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			got := buf.String()
			if strings.TrimSpace(got) == "" {
				t.Fatal("scenario emitted no events; the golden would pin nothing")
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("trace mismatch for %s (rerun with -update after verifying the change)", tc.file)
			}
		})
	}
}

// TestSupervisedPoolConfigValidation: knobs a pool cannot honour fail the
// constructor with an error, never a hang or a panic, while zero and the
// documented non-positive values keep selecting each default.
func TestSupervisedPoolConfigValidation(t *testing.T) {
	lib := paperLib(t)
	scn := edge.Scenario12()
	scn.Duration = 2
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		wantErr string // empty: the run must succeed
	}{
		{"zero values", func(*Config) {}, ""},
		{"standby", func(c *Config) { c.Standby = 1 }, ""},
		{"negative heartbeat selects default", func(c *Config) { c.HeartbeatEvery = -1 }, ""},
		{"zero boards", func(c *Config) { c.Boards = 0 }, "board"},
		{"negative standby", func(c *Config) { c.Standby = -1 }, "standby"},
		{"quorum above pool size", func(c *Config) { c.Quorum = 3 }, "quorum"},
		{"NaN heartbeat", func(c *Config) { c.HeartbeatEvery = nan }, "HeartbeatEvery"},
		{"+Inf heartbeat", func(c *Config) { c.HeartbeatEvery = inf }, "HeartbeatEvery"},
		{"-Inf heartbeat", func(c *Config) { c.HeartbeatEvery = -inf }, "HeartbeatEvery"},
		{"NaN flush slack", func(c *Config) { c.Batch, c.BatchFlushSlack = 8, nan }, "BatchFlushSlack"},
		{"negative flush slack", func(c *Config) { c.Batch, c.BatchFlushSlack = 8, -0.001 }, "BatchFlushSlack"},
	} {
		cfg := Config{Boards: 2, Manager: manager.DefaultConfig()}
		tc.set(&cfg)
		if err := cfg.Validate(); (err == nil) != (tc.wantErr == "") {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
		err := runGuarded(func() error {
			p, err := NewSupervisedPool(lib, cfg)
			if err != nil {
				return err
			}
			if want := cfg.Boards + cfg.Standby; p.Boards() != want {
				return fmt.Errorf("%d boards, want %d", p.Boards(), want)
			}
			_, err = edge.Run(scn, p, edge.SimConfig{Seed: 1})
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
