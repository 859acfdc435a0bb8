package sim

import (
	"math/rand"
	"testing"
)

// Canceling more than half the queue must shrink the heap in place (lazy
// deletion alone would carry the dead entries until popped) while firing
// the surviving events in exactly the order they would have run.
func TestCancelCompactsHeap(t *testing.T) {
	e := NewEngine()
	const n = 1000
	handles := make([]Handle, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		h, err := e.ScheduleCancelable(float64(i), func() { fired = append(fired, i) })
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	// Cancel 600 of 1000: crosses the majority threshold mid-way, so at
	// least one compaction must run.
	for i := 0; i < 600; i++ {
		if !e.Cancel(handles[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	const wantLive = n - 600
	if got := e.Pending(); got != wantLive {
		t.Fatalf("Pending = %d, want %d", got, wantLive)
	}
	if len(e.heap) == n {
		t.Fatalf("queue never compacted: len still %d", len(e.heap))
	}
	if e.canceled > len(e.heap)/2 {
		t.Fatalf("compaction invariant violated: %d canceled of %d queued",
			e.canceled, len(e.heap))
	}
	e.Run(float64(n))
	if len(fired) != wantLive {
		t.Fatalf("fired %d events, want %d", len(fired), wantLive)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("events out of order: %d after %d", fired[i], fired[i-1])
		}
	}
}

// A handle whose event was recycled by compaction must stay inert: Cancel
// reports false and no live event is harmed.
func TestStaleHandleInertAfterCompaction(t *testing.T) {
	e := NewEngine()
	var handles []Handle
	for i := 0; i < 8; i++ {
		h, err := e.ScheduleCancelable(float64(i), func() {})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel 5 of 8 — triggers compaction, recycling the 5 events.
	for i := 0; i < 5; i++ {
		if !e.Cancel(handles[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if e.canceled != 0 {
		t.Fatal("expected compaction to have run")
	}
	// Re-cancel through stale handles: storage may now back new events.
	fired := 0
	for i := 0; i < 3; i++ {
		if _, err := e.ScheduleCancelable(10+float64(i), func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if e.Cancel(handles[i]) {
			t.Fatalf("stale handle %d canceled something", i)
		}
	}
	e.Run(20)
	if fired != 3 {
		t.Fatalf("stale cancel killed live events: fired %d of 3", fired)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after run", got)
	}
}

// Canceled events far past the rest of the heap sit deep in it, below
// the live near ones: they must never fire, whether popped as dead or
// removed by a compaction.
func TestCancelInNonCurrentBucket(t *testing.T) {
	e := NewEngine()
	fired := make(map[float64]bool)
	for i := 0; i < 4; i++ {
		tt := 0.1 + 0.01*float64(i)
		if err := e.Schedule(tt, func() { fired[tt] = true }); err != nil {
			t.Fatal(err)
		}
	}
	var handles []Handle
	for i := 0; i < 3; i++ {
		tt := 1e6 + float64(i)
		h, err := e.ScheduleCancelable(tt, func() { fired[tt] = true })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if !e.Cancel(h) {
			t.Fatal("cancel of far-future event failed")
		}
	}
	// 3 canceled of 7 queued does not cross the >half threshold; the dead
	// events stay in the heap until popped.
	if e.stats.Compactions != 0 || len(e.heap) != 7 {
		t.Fatalf("compactions %d, heap %d; want 0 and 7", e.stats.Compactions, len(e.heap))
	}
	e.Run(2e6)
	if len(fired) != 4 {
		t.Fatalf("fired %d events, want the 4 near ones", len(fired))
	}
	for tt := range fired {
		if tt >= 1e6 {
			t.Fatalf("canceled far event at %v fired", tt)
		}
	}
}

// Crossing the >half-dead threshold must compact the heap in place and
// re-heapify the survivors: scheduled in shuffled time orders, they fire
// in time order.
func TestCalendarCompactionOverHalfDead(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		e := NewEngine()
		var handles []Handle
		var fired []float64
		for _, i := range rand.New(rand.NewSource(seed)).Perm(40) {
			tt := float64(i * i)
			h, err := e.ScheduleCancelable(tt, func() { fired = append(fired, tt) })
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for i, h := range handles {
			if i%4 == 0 {
				continue // keep every fourth
			}
			if !e.Cancel(h) {
				t.Fatalf("seed %d: cancel %d failed", seed, i)
			}
		}
		// The first compaction fires at 21 of 40 canceled and removes those
		// 21; the remaining 9 cancels never re-cross the >half threshold and
		// stay lazily queued (10 live + 9 dead).
		if e.stats.Compactions != 1 || len(e.heap) != 19 || e.Pending() != 10 {
			t.Fatalf("seed %d: %d compactions, heap %d, pending %d; want 1, 19 (10 live + 9 dead), 10",
				seed, e.stats.Compactions, len(e.heap), e.Pending())
		}
		e.Run(40 * 40)
		if len(fired) != 10 {
			t.Fatalf("seed %d: dispatched %d after compaction, want the 10 survivors", seed, len(fired))
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] <= fired[i-1] {
				t.Fatalf("seed %d: survivors out of order: %v", seed, fired)
			}
		}
	}
}
