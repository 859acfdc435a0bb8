package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// tapeEvent is one dispatch of a tape run: the clock when it ran and the
// event's id (negative for ticks: sequence·1000 + tick index).
type tapeEvent struct {
	t  float64
	id int
}

// tapeResult is what a tape run leaves observable.
type tapeResult struct {
	fired []tapeEvent
	now   float64
	stats Stats
	// seqs counts the tick sequences started; peakOther is the most
	// non-tick entries (live or awaiting lazy deletion) queued at once.
	seqs, peakOther int
}

// tickSeq is one tick sequence of a tape: the sequence numbers it
// reserved and how many of its ticks have run.
type tickSeq struct {
	lo, hi int64
	step   float64
	n, ran int
}

// eachQueued calls f on every event stored in q, canceled included.
func eachQueued(q eventQueue, f func(*event)) {
	switch q := q.(type) {
	case *calendarQueue:
		for _, ev := range q.buckets {
			for ; ev != nil; ev = ev.next {
				f(ev)
			}
		}
	case *heapQueue:
		for _, ev := range q.h {
			f(ev)
		}
	default:
		panic("eachQueued: unknown queue")
	}
}

// runTape drives e through a seeded operation tape. Op 0 schedules a
// cancelable event, at now or on a tick's time a quarter of the time
// each; op 1 cancels a random handle; op 2 runs part way; op 3 starts a
// tick sequence, through Ticks or, when upfront is set, as the n
// Schedule calls Ticks stands for. Handlers sometimes schedule more
// events, at now or on the next tick, so ties cross every path. With
// Ticks, every observation (after each op, at the start and end of each
// handler) fails the test if a sequence has more than one tick queued.
func runTape(t *testing.T, e *Engine, seed int64, ops []byte, upfront bool) tapeResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var r tapeResult
	var seqs []*tickSeq
	var handles []Handle
	id := 0

	observe := func() {
		if upfront {
			return
		}
		queued := make([]int, len(seqs))
		other := 0
		eachQueued(e.q, func(ev *event) {
			// Sequences reserve ascending, disjoint ranges.
			k := sort.Search(len(seqs), func(k int) bool { return seqs[k].hi >= ev.seq })
			if k < len(seqs) && seqs[k].lo <= ev.seq {
				queued[k]++
			} else {
				other++
			}
		})
		for k, c := range queued {
			if c > 1 {
				t.Fatalf("sequence %d has %d ticks queued", k, c)
			}
		}
		r.peakOther = max(r.peakOther, other)
	}
	// tickTime picks a time on some sequence's tick grid at or after now,
	// or reports false.
	tickTime := func() (float64, bool) {
		if len(seqs) == 0 {
			return 0, false
		}
		s := seqs[rng.Intn(len(seqs))]
		tt := float64(s.ran+1+rng.Intn(3)) * s.step
		return tt, s.n > 0 && tt >= e.Now()
	}
	var schedule func(tt float64)
	schedule = func(tt float64) {
		id++
		me := id
		h, err := e.ScheduleCancelable(tt, func() {
			observe()
			r.fired = append(r.fired, tapeEvent{e.Now(), me})
			if rng.Intn(8) == 0 {
				schedule(e.Now())
			}
			observe()
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		observe()
	}
	for _, op := range ops {
		switch op % 4 {
		case 0:
			tt := e.Now() + rng.Float64()*float64(1+rng.Intn(300))
			switch rng.Intn(4) {
			case 0:
				tt = e.Now()
			case 1:
				if tk, ok := tickTime(); ok {
					tt = tk
				}
			}
			schedule(tt)
		case 1:
			if len(handles) > 0 {
				e.Cancel(handles[rng.Intn(len(handles))])
			}
		case 2:
			e.Run(e.Now() + rng.Float64()*100)
		case 3:
			s := &tickSeq{step: e.Now() + 0.25 + rng.Float64()*5, n: rng.Intn(40)}
			s.lo, s.hi = e.seq+1, e.seq+int64(s.n)
			k := len(seqs)
			seqs = append(seqs, s)
			fn := func() {
				observe()
				s.ran++
				r.fired = append(r.fired, tapeEvent{e.Now(), -(k*1000 + s.ran)})
				switch rng.Intn(4) {
				case 0:
					schedule(e.Now())
				case 1:
					schedule(float64(s.ran+1) * s.step)
				}
				observe()
			}
			if upfront {
				for i := 1; i <= s.n; i++ {
					if err := e.Schedule(float64(i)*s.step, fn); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := e.Ticks(s.n, s.step, fn); err != nil {
				t.Fatal(err)
			}
		}
		observe()
	}
	e.Run(1e12)
	r.now, r.stats, r.seqs = e.Now(), e.Stats(), len(seqs)
	return r
}

// sameTape fails the test unless a and b fired the same events at the
// same clocks and agree on the clock and the dispatch counters.
func sameTape(t *testing.T, what string, a, b tapeResult) {
	t.Helper()
	if len(a.fired) != len(b.fired) {
		t.Fatalf("%s: fired %d vs %d events", what, len(a.fired), len(b.fired))
	}
	for i := range a.fired {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("%s: event %d: %+v vs %+v", what, i, a.fired[i], b.fired[i])
		}
	}
	if a.now != b.now {
		t.Fatalf("%s: clock %v vs %v", what, a.now, b.now)
	}
	if a.stats.Dispatched != b.stats.Dispatched || a.stats.Canceled != b.stats.Canceled {
		t.Fatalf("%s: stats %+v vs %+v", what, a.stats, b.stats)
	}
}

// checkTicksTape runs one tape four ways — Ticks and up-front Schedule
// calls, each on the calendar queue and the heap reference — and
// requires the same dispatches everywhere, identical Stats between the
// two Ticks queues, and a Ticks MaxHeap of at most one entry per
// sequence above the other events.
func checkTicksTape(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	cal := runTape(t, NewEngine(), seed, ops, false)
	heap := runTape(t, newHeapEngine(), seed, ops, false)
	calUp := runTape(t, NewEngine(), seed, ops, true)
	heapUp := runTape(t, newHeapEngine(), seed, ops, true)
	sameTape(t, "ticks calendar/heap", cal, heap)
	if cal.stats != heap.stats {
		t.Fatalf("ticks stats diverge: calendar %+v, heap %+v", cal.stats, heap.stats)
	}
	sameTape(t, "ticks/up-front calendar", cal, calUp)
	sameTape(t, "up-front calendar/heap", calUp, heapUp)
	if calUp.stats != heapUp.stats {
		t.Fatalf("up-front stats diverge: calendar %+v, heap %+v", calUp.stats, heapUp.stats)
	}
	if cal.stats.MaxHeap > cal.seqs+cal.peakOther {
		t.Fatalf("MaxHeap %d above %d sequences + %d other events", cal.stats.MaxHeap, cal.seqs, cal.peakOther)
	}
}

// TestTicksMatchUpfrontSchedule: a tick sequence dispatches exactly as
// the n Schedule calls it replaces, ties with other traffic included,
// on both queues, while holding one tick in the queue.
func TestTicksMatchUpfrontSchedule(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		ops := make([]byte, 300)
		for i := range ops {
			ops[i] = byte(rng.Intn(4))
		}
		checkTicksTape(t, seed, ops)
	}
}

// TestTicksRejectsBadArguments: every invalid call errors before it
// queues or reserves anything, and n = 0 is a no-op.
func TestTicksRejectsBadArguments(t *testing.T) {
	fn := func() { t.Error("tick of a rejected sequence ran") }
	cases := []struct {
		name string
		now  float64
		n    int
		step float64
		fn   func()
	}{
		{"zero step", 0, 3, 0, fn},
		{"negative step", 0, 3, -1, fn},
		{"NaN step", 0, 3, math.NaN(), fn},
		{"+Inf step", 0, 3, math.Inf(1), fn},
		{"negative n", 0, -1, 1, fn},
		{"nil fn", 0, 3, 1, nil},
		{"first tick before now", 5, 3, 1, fn},
		{"last tick past the range", 0, 4, math.MaxFloat64 / 2, fn},
	}
	for _, c := range cases {
		e := NewEngine()
		e.Run(c.now)
		if err := e.Ticks(c.n, c.step, c.fn); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if e.q.len() != 0 || e.seq != 0 {
			t.Errorf("%s: queued %d events, reserved %d sequence numbers", c.name, e.q.len(), e.seq)
		}
		e.Run(math.MaxFloat64)
	}
	e := NewEngine()
	if err := e.Ticks(0, 1, fn); err != nil {
		t.Fatalf("n = 0: %v", err)
	}
	if e.q.len() != 0 || e.seq != 0 {
		t.Fatalf("n = 0 queued %d events, reserved %d sequence numbers", e.q.len(), e.seq)
	}
}
