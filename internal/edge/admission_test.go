package edge

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

// overloadScn is a short workload well beyond one board's capacity, so
// the admission queue saturates and shedding policy becomes visible.
func overloadScn() Scenario {
	return Scenario{
		Name: "admission-overload", Duration: 4, Devices: 60, PerDeviceFPS: 30,
		Phases: []Phase{{Start: 0, Deviation: 0, Interval: 5}},
	}
}

// TestAdmissionDropAttribution: in both simulation modes, every dropped
// frame carries exactly one cause (Drops.Total() == Dropped) and under a
// tight deadline some of the shedding is deadline-attributed.
func TestAdmissionDropAttribution(t *testing.T) {
	lib := paperLib(t)
	for _, m := range []struct {
		name       string
		eventLevel bool
	}{{"fluid", false}, {"event", true}} {
		t.Run(m.name, func(t *testing.T) {
			res, err := Run(overloadScn(), adaflow(t, lib), SimConfig{
				Seed:            1,
				EventLevel:      m.eventLevel,
				AdmissionConfig: AdmissionConfig{QueueFrames: 16, Deadline: 0.005},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Dropped <= 0 {
				t.Fatal("overload scenario dropped nothing; test exercised no shedding")
			}
			if d := math.Abs(res.Dropped - res.Drops.Total()); d > 1e-6 {
				t.Errorf("dropped %.3f != attributed %.3f", res.Dropped, res.Drops.Total())
			}
			// A 5 ms deadline keeps the backlog below the queue bound, so
			// all steady-state shedding is deadline-attributed.
			if res.Drops.DeadlineExceeded <= 0 {
				t.Errorf("no deadline-exceeded drops under a 5 ms deadline: %+v", res.Drops)
			}
		})
	}
}

// TestAdmissionDeadlineOff: with no deadline configured nothing is
// deadline-attributed, and enabling the deadline only reduces the served
// staleness, never invents frames.
func TestAdmissionDeadlineOff(t *testing.T) {
	lib := paperLib(t)
	res, err := Run(overloadScn(), adaflow(t, lib), SimConfig{Seed: 1, AdmissionConfig: AdmissionConfig{QueueFrames: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops.DeadlineExceeded != 0 {
		t.Errorf("deadline shedding fired with Deadline=0: %+v", res.Drops)
	}
	if res.Drops.QueueFull <= 0 {
		t.Errorf("no queue-full drops with a bounded queue under overload: %+v", res.Drops)
	}
	if d := math.Abs(res.Dropped - res.Drops.Total()); d > 1e-6 {
		t.Errorf("dropped %.3f != attributed %.3f", res.Dropped, res.Drops.Total())
	}
}

// TestAdmitStepTable pins the pure admission kernel's semantics,
// decision by decision. The ordering is load-bearing: queue overflow is
// attributed before the deadline shed, so a burst that blows the bound
// reads as queue-full pressure and only the surviving backlog is
// deadline-policed.
func TestAdmitStepTable(t *testing.T) {
	const fps = 100.0 // serving rate for deadline limits
	cases := []struct {
		name            string
		queue, arrived  float64
		capacity        float64
		bound, deadline float64
		servingFPS      float64
		stalled         bool
		wantQueue       float64
		wantProcessed   float64
		wantOverflow    float64
		wantOverflowWhy metrics.DropCause
		wantShed        float64
		wantShedWhy     metrics.DropCause
	}{
		{
			name:  "drain within capacity",
			queue: 2, arrived: 3, capacity: 10, bound: 16, servingFPS: fps,
			wantQueue: 0, wantProcessed: 5,
		},
		{
			name:  "backlog within bound",
			queue: 4, arrived: 8, capacity: 2, bound: 16, servingFPS: fps,
			wantQueue: 10, wantProcessed: 2,
		},
		{
			name:  "overflow is queue-full",
			queue: 10, arrived: 20, capacity: 4, bound: 16, servingFPS: fps,
			wantQueue: 16, wantProcessed: 4,
			wantOverflow: 10, wantOverflowWhy: metrics.DropQueueFull,
		},
		{
			name:  "overflow with dead server is no-healthy-board",
			queue: 10, arrived: 20, capacity: 0, bound: 16, servingFPS: 0,
			wantQueue: 16, wantProcessed: 0,
			wantOverflow: 14, wantOverflowWhy: metrics.DropNoHealthyBoard,
		},
		{
			name:  "overflow while stalled is reconfig-stall",
			queue: 10, arrived: 20, capacity: 0, bound: 16, servingFPS: fps, stalled: true,
			wantQueue: 16, wantProcessed: 0,
			wantOverflow: 14, wantOverflowWhy: metrics.DropReconfigStall,
		},
		{
			// Ordering: the bound sheds down to 16 first (queue-full), then
			// the 0.1 s deadline polices the survivors down to fps*0.1 = 10
			// (deadline-exceeded). One event each, causes never merge.
			name:  "queue-full attributed before deadline shed",
			queue: 10, arrived: 20, capacity: 4, bound: 16, deadline: 0.1, servingFPS: fps,
			wantQueue: 10, wantProcessed: 4,
			wantOverflow: 10, wantOverflowWhy: metrics.DropQueueFull,
			wantShed: 6, wantShedWhy: metrics.DropDeadlineExceeded,
		},
		{
			name:  "deadline shed alone",
			queue: 8, arrived: 8, capacity: 2, bound: 64, deadline: 0.1, servingFPS: fps,
			wantQueue: 10, wantProcessed: 2,
			wantShed: 4, wantShedWhy: metrics.DropDeadlineExceeded,
		},
		{
			// Deadline == 0 disables shedding entirely: the backlog is
			// served stale, the historical behaviour.
			name:  "deadline zero serves stale",
			queue: 8, arrived: 8, capacity: 2, bound: 64, deadline: 0, servingFPS: fps,
			wantQueue: 14, wantProcessed: 2,
		},
		{
			// A zero-depth queue admits nothing it cannot serve this step:
			// every excess frame overflows immediately.
			name:  "zero-depth queue",
			queue: 0, arrived: 10, capacity: 4, bound: 0, servingFPS: fps,
			wantQueue: 0, wantProcessed: 4,
			wantOverflow: 6, wantOverflowWhy: metrics.DropQueueFull,
		},
		{
			// Dead server with a positive deadline: the whole backlog is
			// past-deadline (fps*deadline = 0) and the cause is the root
			// one, no-healthy-board — not deadline-exceeded.
			name:  "deadline shed with dead server keeps root cause",
			queue: 4, arrived: 4, capacity: 0, bound: 16, deadline: 0.1, servingFPS: 0,
			wantQueue: 0, wantProcessed: 0,
			wantShed: 8, wantShedWhy: metrics.DropNoHealthyBoard,
		},
		{
			name:  "idle step is a no-op",
			queue: 0, arrived: 0, capacity: 1, bound: 16, deadline: 0.1, servingFPS: fps,
			wantQueue: 0, wantProcessed: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := admitStep(tc.queue, tc.arrived, tc.capacity, tc.bound, tc.deadline, tc.servingFPS, tc.stalled)
			if math.Abs(out.Queue-tc.wantQueue) > 1e-9 {
				t.Errorf("queue = %v, want %v", out.Queue, tc.wantQueue)
			}
			if math.Abs(out.Processed-tc.wantProcessed) > 1e-9 {
				t.Errorf("processed = %v, want %v", out.Processed, tc.wantProcessed)
			}
			if math.Abs(out.Overflow-tc.wantOverflow) > 1e-9 {
				t.Errorf("overflow = %v, want %v", out.Overflow, tc.wantOverflow)
			}
			if tc.wantOverflow > 0 && out.OverflowCause != tc.wantOverflowWhy {
				t.Errorf("overflow cause = %v, want %v", out.OverflowCause, tc.wantOverflowWhy)
			}
			if math.Abs(out.Shed-tc.wantShed) > 1e-9 {
				t.Errorf("shed = %v, want %v", out.Shed, tc.wantShed)
			}
			if tc.wantShed > 0 && out.ShedCause != tc.wantShedWhy {
				t.Errorf("shed cause = %v, want %v", out.ShedCause, tc.wantShedWhy)
			}
			if got, want := out.Dropped(), tc.wantOverflow+tc.wantShed; math.Abs(got-want) > 1e-9 {
				t.Errorf("Dropped() = %v, want %v", got, want)
			}
			// Conservation: arrivals either get served, stay queued, or
			// drop with a cause — admitStep invents and loses nothing.
			in := tc.queue + tc.arrived
			if outSum := out.Queue + out.Processed + out.Dropped(); math.Abs(in-outSum) > 1e-9 {
				t.Errorf("conservation broken: in %v, out %v", in, outSum)
			}
		})
	}
}

// TestAdmitStepDeadlineVsQueueOrdering sweeps bound/deadline pairings
// and asserts the attribution boundary: frames beyond the bound are
// always queue-full, frames the deadline rejects are always taken from
// the bounded remainder, and the two never double-count.
func TestAdmitStepDeadlineVsQueueOrdering(t *testing.T) {
	for _, bound := range []float64{0, 4, 16, 64} {
		for _, deadline := range []float64{0, 0.02, 0.1, 1} {
			out := admitStep(12, 24, 6, bound, deadline, 100, false)
			wantOverflow := 30.0 - bound
			if wantOverflow < 0 {
				wantOverflow = 0
			}
			if math.Abs(out.Overflow-wantOverflow) > 1e-9 {
				t.Fatalf("bound=%v deadline=%v: overflow %v, want %v", bound, deadline, out.Overflow, wantOverflow)
			}
			if deadline == 0 && out.Shed != 0 {
				t.Fatalf("bound=%v: shed %v with deadline off", bound, out.Shed)
			}
			if deadline > 0 {
				lim := 100 * deadline
				afterBound := 30.0 - out.Overflow
				wantShed := afterBound - lim
				if wantShed < 0 {
					wantShed = 0
				}
				if math.Abs(out.Shed-wantShed) > 1e-9 {
					t.Fatalf("bound=%v deadline=%v: shed %v, want %v", bound, deadline, out.Shed, wantShed)
				}
			}
		}
	}
}
