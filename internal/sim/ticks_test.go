package sim

import (
	"math"
	"math/rand"
	"slices"
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
	// pending is Pending at every observation.
	pending []int
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

// shadowEvent is one scheduled event as the tape's oracle sees it: the
// (time, seq) key it must be dispatched by and the tape's id for it.
type shadowEvent struct {
	t   float64
	seq int64
	id  int
}

// shadow is the brute-force reference for the event order: every live
// scheduled event, a tick sequence's n reserved keys included from the
// Ticks call on. It knows nothing of the heap.
type shadow []shadowEvent

// least returns the index of the entry with the least (time, seq), by
// linear scan, or -1 when the shadow is empty.
func (s shadow) least() int {
	m := -1
	for i, ev := range s {
		if m < 0 || ev.t < s[m].t || ev.t == s[m].t && ev.seq < s[m].seq {
			m = i
		}
	}
	return m
}

// remove deletes the entry keyed seq and reports whether there was one.
func (s *shadow) remove(seq int64) bool {
	for i, ev := range *s {
		if ev.seq == seq {
			(*s)[i] = (*s)[len(*s)-1]
			*s = (*s)[:len(*s)-1]
			return true
		}
	}
	return false
}

// tapeMode is how a tape starts its tick sequences.
type tapeMode int

const (
	// viaTicks calls Engine.Ticks.
	viaTicks tapeMode = iota
	// viaUpfront makes the n Schedule calls Ticks stands for.
	viaUpfront
	// viaRefile reserves the n sequence numbers and files each tick into
	// the heap under its reserved key once the previous tick's fn
	// returns: the one-queued-tick model whose counters Ticks keeps.
	viaRefile
)

// runTape drives e through a seeded operation tape. Op 0 schedules a
// cancelable event, at now or on a tick's time a quarter of the time
// each; op 1 cancels a random handle; op 2 runs part way; op 3 starts a
// tick sequence the way mode says; op 4 schedules at a NaN time or just
// before now, which must fail and leave the queue and the sequence
// numbers as they were. Handlers sometimes schedule more events, at now
// or on the next tick, so ties cross every path.
//
// A shadow list checks every step against the (time, seq) order: each
// dispatch must be the shadow's least entry and fire at its time, Cancel
// must report true exactly for a live entry, a partial run must leave no
// entry due, and the final run must drain the shadow. Every observation
// (after each op, at the start and end of each handler) checks Pending:
// up front it equals the shadow's length; otherwise it counts the
// shadow's other events plus one tick per unfinished sequence, less the
// sequence whose handler is running, and no sequence may have more than
// one tick queued, in the heap or beside it.
func runTape(t *testing.T, e *Engine, seed int64, ops []byte, mode tapeMode) tapeResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var r tapeResult
	var seqs []*tickSeq
	var handles []Handle
	var live shadow
	id := 0
	// running is the sequence whose tick handler is on the stack, or -1.
	running := -1

	dispatched := func(id int) {
		m := live.least()
		if m < 0 || live[m].id != id || live[m].t != e.Now() {
			t.Fatalf("dispatched %d at %v; oracle's least is %+v (index %d of %d)", id, e.Now(), live[max(m, 0)], m, len(live))
		}
		live.remove(live[m].seq)
	}
	observe := func() {
		r.pending = append(r.pending, e.Pending())
		if mode == viaUpfront {
			if e.Pending() != len(live) {
				t.Fatalf("Pending %d, oracle holds %d", e.Pending(), len(live))
			}
			return
		}
		want := 0
		unfinished := make([]bool, len(seqs))
		for _, ev := range live {
			if ev.id >= 0 {
				want++
			} else {
				unfinished[-ev.id/1000] = true
			}
		}
		for k, u := range unfinished {
			if u && k != running {
				want++
			}
		}
		if e.Pending() != want {
			t.Fatalf("Pending %d, oracle expects %d", e.Pending(), want)
		}
		// Sequences reserve ascending, disjoint ranges.
		seqOf := func(seq int64) int {
			k := sort.Search(len(seqs), func(k int) bool { return seqs[k].hi >= seq })
			if k < len(seqs) && seqs[k].lo <= seq {
				return k
			}
			return -1
		}
		queued := make([]int, len(seqs))
		other := 0
		for _, ev := range e.heap { // canceled entries included
			if k := seqOf(ev.seq); k >= 0 {
				queued[k]++
			} else {
				other++
			}
		}
		for _, tk := range e.ticks {
			if k := seqOf(tk.seq); k >= 0 {
				queued[k]++
			} else {
				t.Fatalf("tick record with seq %d outside every sequence", tk.seq)
			}
		}
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
			dispatched(me)
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
		live = append(live, shadowEvent{tt, h.seq, me})
		observe()
	}
	for _, op := range ops {
		switch op % 5 {
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
				h := handles[rng.Intn(len(handles))]
				if got, want := e.Cancel(h), live.remove(h.seq); got != want {
					t.Fatalf("Cancel of seq %d reported %v, oracle says live = %v", h.seq, got, want)
				}
			}
		case 2:
			until := e.Now() + rng.Float64()*100
			e.Run(until)
			if m := live.least(); m >= 0 && live[m].t <= until {
				t.Fatalf("Run(%v) left %+v due", until, live[m])
			}
		case 3:
			s := &tickSeq{step: e.Now() + 0.25 + rng.Float64()*5, n: rng.Intn(40)}
			s.lo, s.hi = e.seq+1, e.seq+int64(s.n)
			k := len(seqs)
			seqs = append(seqs, s)
			for i := 1; i <= s.n; i++ {
				live = append(live, shadowEvent{float64(i) * s.step, s.lo + int64(i-1), -(k*1000 + i)})
			}
			fn := func() {
				outer := running
				running = k
				s.ran++
				dispatched(-(k*1000 + s.ran))
				observe()
				r.fired = append(r.fired, tapeEvent{e.Now(), -(k*1000 + s.ran)})
				switch rng.Intn(4) {
				case 0:
					schedule(e.Now())
				case 1:
					schedule(float64(s.ran+1) * s.step)
				}
				observe()
				running = outer
			}
			switch mode {
			case viaUpfront:
				for i := 1; i <= s.n; i++ {
					if err := e.Schedule(float64(i)*s.step, fn); err != nil {
						t.Fatal(err)
					}
				}
			case viaRefile:
				if s.n > 0 {
					e.seq += int64(s.n)
					var tick func()
					tick = func() {
						fn()
						if i := s.ran + 1; i <= s.n {
							e.file(float64(i)*s.step, s.lo+int64(i-1), tick)
						}
					}
					e.file(s.step, s.lo, tick)
				}
			default:
				if err := e.Ticks(s.n, s.step, fn); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			tt := math.NaN()
			if rng.Intn(2) == 0 {
				tt = math.Nextafter(e.Now(), math.Inf(-1))
			}
			pending, seq := e.Pending(), e.seq
			if _, err := e.ScheduleCancelable(tt, func() { t.Errorf("event at %v ran", tt) }); err == nil {
				t.Fatalf("schedule at %v with the clock at %v accepted", tt, e.Now())
			}
			if e.Pending() != pending || e.seq != seq {
				t.Fatalf("rejected schedule at %v changed Pending %d → %d, seq %d → %d", tt, pending, e.Pending(), seq, e.seq)
			}
		}
		observe()
	}
	e.Run(1e12)
	if len(live) != 0 {
		t.Fatalf("final run left %d scheduled events undispatched", len(live))
	}
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

// checkTicksTape runs one tape three ways, through Ticks, as up-front
// Schedule calls and through the re-filing model, each checked step by
// step against runTape's oracle. It requires the same dispatches every
// way, a Ticks MaxHeap of at most one entry per sequence above the other
// events, and Ticks counters — Stats and Pending at every observation —
// equal to the re-filing model's, which queued each next tick as a heap
// event.
func checkTicksTape(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	ticks := runTape(t, NewEngine(), seed, ops, viaTicks)
	upfront := runTape(t, NewEngine(), seed, ops, viaUpfront)
	refile := runTape(t, NewEngine(), seed, ops, viaRefile)
	sameTape(t, "ticks/up-front", ticks, upfront)
	sameTape(t, "ticks/re-filing", ticks, refile)
	if ticks.stats != refile.stats {
		t.Fatalf("stats %+v, re-filing model %+v", ticks.stats, refile.stats)
	}
	if !slices.Equal(ticks.pending, refile.pending) {
		t.Fatalf("Pending by observation %v, re-filing model %v", ticks.pending, refile.pending)
	}
	if ticks.stats.MaxHeap > ticks.seqs+ticks.peakOther {
		t.Fatalf("MaxHeap %d above %d sequences + %d other events", ticks.stats.MaxHeap, ticks.seqs, ticks.peakOther)
	}
}

// TestTicksMatchUpfrontSchedule: a tick sequence dispatches exactly as
// the n Schedule calls it replaces, ties with other traffic included,
// while holding one tick in the heap, and both dispatch in the oracle's
// order.
func TestTicksMatchUpfrontSchedule(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		ops := make([]byte, 300)
		for i := range ops {
			ops[i] = []byte{0, 1, 2, 3}[rng.Intn(4)]
		}
		checkTicksTape(t, seed, ops)
	}
}

// TestCalendarMatchesHeapDifferential keeps its name from when the engine
// had a calendar queue checked against a reference heap. It now checks
// the engine's heap against runTape's brute-force oracle on tapes that
// schedule, cancel and run part way (3:1:1) without ticks, so lazy
// deletions pile up and compactions come often.
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

// FuzzEventQueue drives the engine with a fuzzer-chosen operation tape
// (schedule, cancel, partial run, tick sequence, rejected schedule)
// through Ticks and as up-front Schedule calls, each checked against the
// oracle (checkTicksTape).
func FuzzEventQueue(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 2, 0, 2})
	f.Add(int64(7), []byte{0, 1, 0, 1, 0, 1, 2, 2})
	f.Add(int64(3), []byte{3, 0, 0, 2, 3, 0, 1, 2, 0, 2})
	f.Add(int64(5), []byte{0, 4, 3, 4, 2, 4, 0, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkTicksTape(t, seed, ops)
	})
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
		if e.queued() != 0 || e.seq != 0 {
			t.Errorf("%s: queued %d events, reserved %d sequence numbers", c.name, e.queued(), e.seq)
		}
		e.Run(math.MaxFloat64)
	}
	e := NewEngine()
	if err := e.Ticks(0, 1, fn); err != nil {
		t.Fatalf("n = 0: %v", err)
	}
	if e.queued() != 0 || e.seq != 0 {
		t.Fatalf("n = 0 queued %d events, reserved %d sequence numbers", e.queued(), e.seq)
	}
}

// BenchmarkTicks serves one fluid run's event traffic: 2500 ticks of
// 10 ms (Scenario 2's accounting steps) dispatched beside a heartbeat
// every 0.1 s that files the next one, as edge runs beat their
// supervisors.
func BenchmarkTicks(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		e := NewEngine()
		steps := 0
		if err := e.Ticks(2500, 0.01, func() { steps++ }); err != nil {
			b.Fatal(err)
		}
		var beat func()
		beat = func() {
			if t := e.Now() + 0.1; t < 25 {
				if err := e.Schedule(t, beat); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := e.Schedule(0.1, beat); err != nil {
			b.Fatal(err)
		}
		e.Run(26)
		if steps != 2500 {
			b.Fatalf("%d of 2500 ticks ran", steps)
		}
	}
}
