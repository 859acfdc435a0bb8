package sim

import (
	"math/rand"
	"testing"
)

// The calendar queue must be observationally identical to the binary heap
// it replaced (heap_test.go): same fired sequences, same Stats. These tests drive the two
// implementations side by side and poke the calendar-specific machinery
// (bucket years, resizing, scan repair) the generic engine tests can't
// reach deterministically.

func calendarOf(t *testing.T, e *Engine) *calendarQueue {
	t.Helper()
	cq, ok := e.q.(*calendarQueue)
	if !ok {
		t.Fatalf("engine queue is %T, want *calendarQueue", e.q)
	}
	return cq
}

func TestNewEngineDefaultsToCalendar(t *testing.T) {
	calendarOf(t, NewEngine())
}

// Canceling an event that sits in a bucket the scan cursor has not reached
// (a far-future "day", possibly a different year of the same physical
// bucket) must remove it on compaction and never fire it.
func TestCancelInNonCurrentBucket(t *testing.T) {
	e := NewEngine()
	cq := calendarOf(t, e)
	fired := make(map[float64]bool)
	// Anchor events at the near edge so the scan cursor stays on day 0.
	for i := 0; i < 4; i++ {
		tt := 0.1 + 0.01*float64(i)
		if err := e.Schedule(tt, func() { fired[tt] = true }); err != nil {
			t.Fatal(err)
		}
	}
	// Far-future events: with width 1 and minBuckets 8, day(1e6) wraps
	// onto a physical bucket many "years" ahead of the scan position.
	var handles []Handle
	for i := 0; i < 3; i++ {
		tt := 1e6 + float64(i)
		h, err := e.ScheduleCancelable(tt, func() { fired[tt] = true })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if cq.day(1e6) == cq.scan {
		t.Fatal("test setup: far event landed on the scan day")
	}
	for _, h := range handles {
		if !e.Cancel(h) {
			t.Fatal("cancel of far-future event failed")
		}
	}
	// 3 canceled of 7 queued does not cross the >half threshold; the dead
	// events sit in their buckets until compact or pop.
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

// Crossing the >half-dead threshold must compact the calendar in place,
// unlinking dead events from buckets the scan has never visited.
func TestCalendarCompactionOverHalfDead(t *testing.T) {
	e := NewEngine()
	cq := calendarOf(t, e)
	var handles []Handle
	for i := 0; i < 40; i++ {
		h, err := e.ScheduleCancelable(float64(i*i), func() {})
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
			t.Fatalf("cancel %d failed", i)
		}
	}
	if e.stats.Compactions == 0 {
		t.Fatal("no compaction despite 30/40 canceled")
	}
	// The first compaction fires at 21 of 40 canceled and removes those 21;
	// the remaining 9 cancels never re-cross the >half threshold and stay
	// lazily queued (10 live + 9 dead).
	if cq.count != 19 {
		t.Fatalf("calendar count after compaction = %d, want 19 (10 live + 9 dead)", cq.count)
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	e.Run(40 * 40)
	if d := e.Stats().Dispatched; d != 10 {
		t.Fatalf("dispatched %d after compaction, want the 10 survivors", d)
	}
}

func TestCalendarResizeGrowShrink(t *testing.T) {
	e := NewEngine()
	cq := calendarOf(t, e)
	if cq.nb != minBuckets {
		t.Fatalf("initial buckets = %d", cq.nb)
	}
	const n = 500
	var fired []float64
	for i := 0; i < n; i++ {
		tt := float64(i) * 0.37
		if err := e.Schedule(tt, func() { fired = append(fired, tt) }); err != nil {
			t.Fatal(err)
		}
	}
	if cq.nb <= minBuckets {
		t.Fatalf("queue never grew: nb = %d with %d events", cq.nb, n)
	}
	grown := cq.nb
	e.Run(1e9)
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
	if cq.nb >= grown {
		t.Fatalf("queue never shrank: nb = %d (peak %d)", cq.nb, grown)
	}
}

// Identical stimulus → identical fired sequence and identical Stats on
// both queue implementations: the continuity guarantee for MaxHeap and
// Compactions across the engine swap. The tapes schedule, cancel and
// run part way (3:1:1); tick sequences are TestTicksMatchUpfrontSchedule's.
func TestCalendarMatchesHeapDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 2000))
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = []byte{0, 0, 0, 1, 2}[rng.Intn(5)]
		}
		checkTicksTape(t, seed, ops)
	}
}

// Events scheduled from inside handlers land in buckets relative to the
// advanced clock; the engine loop must see them immediately when due.
func TestCalendarHandlerScheduling(t *testing.T) {
	e := NewEngine()
	var order []int
	if err := e.Schedule(10, func() {
		order = append(order, 1)
		// Same-time follow-up: must run before anything later.
		if err := e.Schedule(e.Now(), func() { order = append(order, 2) }); err != nil {
			t.Error(err)
		}
		// Far jump, then a chain back near the clock.
		if err := e.Schedule(5000, func() { order = append(order, 4) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(20, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	e.Run(1e4)
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// FuzzCalendarQueue drives both queue implementations with a fuzzer-chosen
// operation tape (schedule, cancel, partial run, tick sequence) and
// requires identical observable behavior, with tick sequences run both
// through Ticks and as up-front Schedule calls (checkTicksTape).
func FuzzCalendarQueue(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 2, 0, 2})
	f.Add(int64(7), []byte{0, 1, 0, 1, 0, 1, 2, 2})
	f.Add(int64(3), []byte{3, 0, 0, 2, 3, 0, 1, 2, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkTicksTape(t, seed, ops)
	})
}
