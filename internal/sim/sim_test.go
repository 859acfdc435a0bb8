package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tt := range times {
		tt := tt
		if err := e.Schedule(tt, func() { got = append(got, tt) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(10)
	if !sort.Float64sAreSorted(got) || len(got) != 5 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(1, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(5, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run(6)
	if err := e.Schedule(3, func() {}); err == nil {
		t.Fatal("past scheduling accepted")
	}
	if err := e.Schedule(6, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	if err := e.Schedule(e.Now()-1, func() {}); err == nil {
		t.Fatal("schedule one second before now accepted")
	}
	// A NaN time compares false against now and every queued key.
	if err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Fatal("NaN time accepted")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending %d after rejected schedules, want 0", e.Pending())
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := NewEngine()
	fired := false
	if err := e.Schedule(5, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	e.Run(4)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(6)
	if !fired {
		t.Fatal("event not fired on resumed run")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			if err := e.Schedule(e.Now()+1, chain); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.Schedule(0, chain); err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	if count != 5 {
		t.Fatalf("chain count = %d", count)
	}
}

// Events scheduled from inside a handler join the heap relative to the
// advanced clock: a follow-up at now runs before later events, a far one
// after them.
func TestCalendarHandlerScheduling(t *testing.T) {
	e := NewEngine()
	var order []int
	if err := e.Schedule(10, func() {
		order = append(order, 1)
		if err := e.Schedule(e.Now(), func() { order = append(order, 2) }); err != nil {
			t.Error(err)
		}
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
	if !slices.Equal(order, []int{1, 2, 3, 4}) {
		t.Fatalf("order = %v, want [1 2 3 4]", order)
	}
}

// Property: any batch of randomly-timed events executes in nondecreasing
// time order.
func TestOrderingQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []float64
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			tt := rng.Float64() * 100
			if err := e.Schedule(tt, func() { fired = append(fired, tt) }); err != nil {
				return false
			}
		}
		e.Run(200)
		return len(fired) == n && sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelPendingEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	h, err := e.ScheduleCancelable(5, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if !e.Cancel(h) {
		t.Fatal("cancel of pending event failed")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after cancel = %d", e.Pending())
	}
	e.Run(10)
	if fired {
		t.Fatal("canceled event fired")
	}
	// Canceling twice (or after the queue drained) is a no-op.
	if e.Cancel(h) {
		t.Fatal("second cancel reported success")
	}
	// The clock still reaches until: canceled events don't advance it.
	if e.Now() != 10 {
		t.Fatalf("Now = %v", e.Now())
	}
}

// TestCancelDoesNotResurrectRecycledEvent: after an event runs, its
// storage returns to the free list and may back a brand-new event. A
// stale Handle to the old event must not cancel — or otherwise disturb —
// the new one (the event free-list never resurrects a canceled event).
func TestCancelDoesNotResurrectRecycledEvent(t *testing.T) {
	e := NewEngine()
	h, err := e.ScheduleCancelable(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2) // fires; its *event is recycled into the free list

	// The next schedule reuses the freed event storage.
	fired := false
	h2, err := e.ScheduleCancelable(3, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if h2.ev != h.ev {
		t.Skip("free list did not recycle the event; resurrection impossible")
	}
	if e.Cancel(h) {
		t.Fatal("stale handle canceled a recycled event")
	}
	e.Run(4)
	if !fired {
		t.Fatal("recycled event killed by stale cancel")
	}
}

// TestCanceledEventRecyclesCleanly: a canceled event's storage goes back
// to the free list on pop and serves later schedules normally.
func TestCanceledEventRecyclesCleanly(t *testing.T) {
	e := NewEngine()
	h, _ := e.ScheduleCancelable(1, func() { t.Error("canceled event ran") })
	e.Cancel(h)
	count := 0
	if err := e.Schedule(2, func() { count++ }); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	// Storage freed by the canceled pop now backs a new event.
	if err := e.Schedule(4, func() { count++ }); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestScheduleCancelableValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.ScheduleCancelable(1, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	e.Run(5)
	if _, err := e.ScheduleCancelable(1, func() {}); err == nil {
		t.Fatal("past scheduling accepted")
	}
	if _, err := e.ScheduleCancelable(math.NaN(), func() {}); err == nil {
		t.Fatal("NaN time accepted")
	}
	if e.Cancel(Handle{}) {
		t.Fatal("zero handle canceled something")
	}
}

func TestRNGDeterministicStreams(t *testing.T) {
	a := RNG(1, "x").Float64()
	b := RNG(1, "x").Float64()
	c := RNG(1, "y").Float64()
	d := RNG(2, "x").Float64()
	if a != b {
		t.Fatal("same seed/stream differ")
	}
	if a == c || a == d {
		t.Fatal("streams not independent")
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 10; i++ {
		if err := e.Schedule(float64(i), func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	var handles []Handle
	for i := 0; i < 12; i++ {
		h, err := e.ScheduleCancelable(float64(i)+0.5, func() { ran++ })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if !e.Cancel(h) {
			t.Fatal("cancel failed")
		}
	}
	e.Run(100)
	st := e.Stats()
	if ran != 10 || st.Dispatched != 10 {
		t.Fatalf("dispatched = %d (ran %d), want 10", st.Dispatched, ran)
	}
	if st.Canceled != 12 {
		t.Fatalf("canceled = %d, want 12", st.Canceled)
	}
	// Canceling 12 of 22 queued events crosses the >half-dead threshold and
	// must have compacted at least once.
	if st.Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	if st.MaxHeap != 22 {
		t.Fatalf("max heap = %d, want 22", st.MaxHeap)
	}
}
