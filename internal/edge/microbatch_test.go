package edge

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Property tests for the micro-batched service path: batching amortizes
// dispatch cost but must never cost a deadline. Scenarios, fault plans and
// batch sizes are drawn from a seeded RNG so the invariants hold across
// the space, not just on the golden configurations.

// eventSink collects every emitted event (no sampling, no aggregation).
type eventSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *eventSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

func randScenario(rng *rand.Rand) Scenario {
	s := Scenario{
		Name:         "prop",
		Duration:     4 + 4*rng.Float64(),
		Devices:      10 + rng.Intn(30),
		PerDeviceFPS: 30,
		Phases:       []Phase{{Start: 0, Deviation: rng.Float64() * 0.5, Interval: 0.5 + 2*rng.Float64()}},
	}
	if rng.Intn(2) == 0 {
		s.Phases = append(s.Phases, Phase{
			Start: s.Duration / 2, Deviation: rng.Float64() * 0.8, Interval: 0.3 + rng.Float64(),
		})
	}
	return s
}

func randPlan(t *testing.T, rng *rand.Rand) *fault.Plan {
	t.Helper()
	var parts []string
	if rng.Intn(2) == 0 {
		parts = append(parts, fmt.Sprintf("sensor-dropout:p=%.2f", 0.05+rng.Float64()*0.15))
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, fmt.Sprintf("sensor-spike:p=%.2f,mag=0.4", 0.05+rng.Float64()*0.25))
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, fmt.Sprintf("accuracy-drift:p=%.2f,mag=-0.05", 0.02+rng.Float64()*0.08))
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, "reconfig-stall:p=0.25")
	}
	if len(parts) == 0 {
		return nil
	}
	plan, err := fault.ParsePlan(strings.Join(parts, ";"))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestBatchingNeverCausesDeadlineMiss is the acceptance property of the
// micro-batcher: across randomized scenarios, fault plans and batch
// sizes, every batch of size > 1 completes within its oldest frame's
// deadline (later frames in the batch have later deadlines, so the oldest
// is the binding one). Size-1 dispatches are exactly what single-frame
// serving would do, so any miss there is not caused by batching. Frame
// conservation and batch bookkeeping are checked alongside.
func TestBatchingNeverCausesDeadlineMiss(t *testing.T) {
	lib := paperLib(t)
	for _, batch := range []int{2, 4, 8} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(batch) + seed))
			scn := randScenario(rng)
			deadline := 0.05 + rng.Float64()*0.25
			sink := &eventSink{}
			cfg := SimConfig{
				Seed:            seed,
				EventLevel:      true,
				AdmissionConfig: AdmissionConfig{Deadline: deadline},
				BatchConfig:     BatchConfig{Size: batch},
				PoissonArrivals: rng.Intn(2) == 0,
				FaultConfig:     FaultConfig{Plan: randPlan(t, rng), Seed: seed + 100},
			}
			res, err := Run(scn, adaflow(t, lib), cfg, WithTracer(obs.New(sink)))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("batch=%d seed=%d", batch, seed)
			// Conservation: what is neither processed nor dropped is still
			// queued or in the in-flight batch at run end.
			residual := res.Arrived - res.Processed - res.Dropped
			if residual < 0 || residual > 16+float64(batch) {
				t.Errorf("%s: residual %v outside [0, queue+batch]", name, residual)
			}
			if res.Batch.Frames != res.Processed {
				t.Errorf("%s: batch frames %v != processed %v (every served frame must be in exactly one batch)",
					name, res.Batch.Frames, res.Processed)
			}
			if res.Batch.MaxBatch > float64(batch) {
				t.Errorf("%s: max batch %v exceeds configured %d", name, res.Batch.MaxBatch, batch)
			}
			var batches float64
			for _, ev := range sink.evs {
				if ev.Name != "batch" || ev.Cat != obs.EdgeCat {
					continue
				}
				batches++
				size, _ := ev.Attr("size")
				lat, _ := ev.Attr("oldest_latency_ms")
				if size.Float() > 1 && lat.Float() > deadline*1e3+1e-6 {
					t.Errorf("%s: batch of %v at t=%.4f finished %.3f ms after arrival, deadline %.3f ms",
						name, size.Float(), ev.Time, lat.Float(), deadline*1e3)
				}
			}
			if batches != res.Batch.Batches {
				t.Errorf("%s: %v batch events, stats count %v", name, batches, res.Batch.Batches)
			}
			if res.Batch.Batches > 0 && res.Batch.FullFlushes+res.Batch.SlackFlushes+res.Batch.IdleFlushes != res.Batch.Batches {
				t.Errorf("%s: flush causes %v+%v+%v don't sum to %v batches", name,
					res.Batch.FullFlushes, res.Batch.SlackFlushes, res.Batch.IdleFlushes, res.Batch.Batches)
			}
		}
	}
}

// TestBatchedRunBitIdenticalReplay: a batched event-level run replays
// bit-identically with itself, and RunRepeated over the same config is
// identical at 1, 2 and NumCPU workers.
func TestBatchedRunBitIdenticalReplay(t *testing.T) {
	lib := paperLib(t)
	cfg := SimConfig{
		Seed:            3,
		EventLevel:      true,
		AdmissionConfig: AdmissionConfig{Deadline: 0.1},
		BatchConfig:     BatchConfig{Size: 8},
		FaultConfig:     FaultConfig{Plan: chaosPlan(t), Seed: 11},
	}
	run := func() *Result {
		res, err := Run(Scenario12(), adaflow(t, lib), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("batched event-level replay diverged")
	}

	mk := func() (Controller, error) { return adaflow(t, lib), nil }
	repeatedAcrossWorkers(t, Scenario12(), mk, 6, 3, cfg)
}

// TestBatchDisabledIsHistoricalPath: Batch 0 and 1 take the exact
// single-frame service path — results must be deeply equal to each other
// and carry zero batch stats.
func TestBatchDisabledIsHistoricalPath(t *testing.T) {
	lib := paperLib(t)
	run := func(batch int) *Result {
		res, err := Run(Scenario2(), adaflow(t, lib), SimConfig{
			Seed:            5,
			EventLevel:      true,
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: batch},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(0), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Batch=1 diverged from Batch=0")
	}
	if a.Batch != (metrics.BatchStats{}) {
		t.Fatalf("unbatched run has batch stats %+v", a.Batch)
	}
}

// TestFluidBatchAccounting: the fluid Run's analytic carry must conserve
// frames (batch frames == processed) and never exceed the configured
// batch, mirroring the event-level invariants at fluid granularity.
func TestFluidBatchAccounting(t *testing.T) {
	lib := paperLib(t)
	res, err := Run(Scenario2(), adaflow(t, lib), SimConfig{
		Seed:            7,
		AdmissionConfig: AdmissionConfig{Deadline: 0.1},
		BatchConfig:     BatchConfig{Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Batches == 0 {
		t.Fatal("fluid batched run recorded no batches")
	}
	if res.Batch.MaxBatch > 8 {
		t.Fatalf("fluid max batch %v exceeds 8", res.Batch.MaxBatch)
	}
	diff := res.Batch.Frames - res.Processed
	if diff < -8 || diff > 8 {
		t.Fatalf("fluid batch frames %v vs processed %v (carry may hold at most one batch)",
			res.Batch.Frames, res.Processed)
	}
}
