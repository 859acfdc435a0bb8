// Package sim provides a small discrete-event simulation kernel: a clock,
// a binary min-heap of timestamped events ordered by (time, schedule
// order), fixed-step tick sequences held beside the heap, and seeded RNG
// streams (math/rand's generator, seeded in O(1) by Source). The
// edge-server simulation in internal/edge runs on it; its runs hold a
// handful of pending events at a time, which a heap serves in a few
// comparisons.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now float64
	seq int64
	// heap is the pending-event min-heap on (time, seq) (queue.go),
	// canceled events included until popped or compacted.
	heap []*event
	// free recycles popped events so steady-state simulation (the edge
	// scenario replays schedule millions of events per run) does not
	// allocate per Schedule call. Refills come from eventSlab-sized batch
	// allocations, amortizing even the cold-start event allocations.
	free []*event
	// canceled counts queued events whose fn was cleared by Cancel; they
	// still occupy the queue until popped but never run.
	canceled int
	// ticks holds the unfinished Ticks sequences, each as the record of
	// its next tick; Run dispatches them beside the heap. hidden is 1
	// while a tick's fn runs and its sequence's next tick is already in
	// ticks: the counters count that tick only once the fn returns, as
	// when each tick was filed into the heap after the previous one ran.
	ticks  []ticker
	hidden int

	// stats are lifetime counters for the observability layer; trace, when
	// enabled, additionally emits sampled per-dispatch events and one
	// summary per Run. Both are passive: they never affect scheduling.
	stats Stats
	trace *obs.Trace
}

// Stats are the engine's lifetime event-loop counters.
type Stats struct {
	// Dispatched counts events whose fn actually ran.
	Dispatched int
	// Canceled counts events killed by Cancel before running.
	Canceled int
	// Compactions counts lazy-deletion queue compaction passes.
	Compactions int
	// MaxHeap is the peak heap occupancy (live + canceled entries).
	MaxHeap int
}

// Stats returns the engine's event-loop counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// SetTracer attaches an observability trace to the engine: Run then emits
// sampled "sim/event" dispatch events (queue occupancy) and one "sim/run"
// summary per Run call. A nil trace detaches. Tracing is passive — it
// cannot change event order, timing, or results.
func (e *Engine) SetTracer(tr *obs.Trace) { e.trace = tr }

// NewEngine returns an engine with the clock at zero and an empty heap
// sized for the few events a served run keeps pending.
func NewEngine() *Engine { return &Engine{heap: make([]*event, 0, 8)} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run at absolute time t. Events at equal times run
// in scheduling order (FIFO). Scheduling in the past or at a NaN time is
// an error: a NaN key is unordered against every other and would misorder
// the heap.
func (e *Engine) Schedule(t float64, fn func()) error {
	_, err := e.schedule(t, fn)
	return err
}

// eventSlab is the batch size for event storage allocation.
const eventSlab = 64

func (e *Engine) schedule(t float64, fn func()) (*event, error) {
	if fn == nil {
		return nil, fmt.Errorf("sim: nil event function")
	}
	if !(t >= e.now) {
		return nil, fmt.Errorf("sim: schedule at %v, not at or after now %v", t, e.now)
	}
	e.seq++
	return e.file(t, e.seq, fn), nil
}

// file queues fn at (t, seq) on recycled event storage. The caller has
// validated t and fn and owns seq.
func (e *Engine) file(t float64, seq int64, fn func()) *event {
	if len(e.free) == 0 {
		slab := make([]event, eventSlab)
		for i := range slab {
			e.free = append(e.free, &slab[i])
		}
	}
	n := len(e.free)
	ev := e.free[n-1]
	e.free = e.free[:n-1]
	*ev = event{time: t, seq: seq, fn: fn}
	e.push(ev)
	e.peak()
	return ev
}

// queued counts the queue entries: heap events, canceled ones included,
// and one per queued tick.
func (e *Engine) queued() int { return len(e.heap) + len(e.ticks) - e.hidden }

// peak records the queue occupancy in MaxHeap.
func (e *Engine) peak() {
	if n := e.queued(); n > e.stats.MaxHeap {
		e.stats.MaxHeap = n
	}
}

// ticker is an unfinished Ticks sequence: event is its next tick, with
// the tick's time and reserved sequence number; i is that tick's index
// and n the sequence's last.
type ticker struct {
	event
	step float64
	i, n int
}

// Ticks runs fn at float64(i)*step for i = 1…n. It reserves the sequence
// numbers n Schedule calls made now would get, and Run dispatches each
// tick under its reserved (time, seq), so the dispatch order — ties
// included — is exactly that of the n up-front Schedule calls. The
// sequence is held beside the heap as one record of its next tick, and
// the counters (Stats, Pending) count it as one queued event, absent
// while a tick's fn runs.
// A non-positive or non-finite step, a negative n, a first tick before
// now or a last tick past the finite range is rejected before anything
// is queued, so no later tick can fail.
func (e *Engine) Ticks(n int, step float64, fn func()) error {
	switch {
	case fn == nil:
		return fmt.Errorf("sim: nil tick function")
	case n < 0:
		return fmt.Errorf("sim: negative tick count %d", n)
	case !(step > 0) || math.IsInf(step, 1):
		return fmt.Errorf("sim: tick step %v must be positive and finite", step)
	case n == 0:
		return nil
	case step < e.now:
		return fmt.Errorf("sim: first tick at %v before now %v", step, e.now)
	case math.IsInf(float64(n)*step, 1):
		return fmt.Errorf("sim: %d ticks of %v overflow the clock", n, step)
	}
	e.ticks = append(e.ticks, ticker{event: event{time: step, seq: e.seq + 1, fn: fn}, step: step, i: 1, n: n})
	e.seq += int64(n)
	e.peak()
	return nil
}

// nextTick returns the index of the least (time, seq) record in ticks,
// which must not be empty. A run holds a handful of sequences at most.
func (e *Engine) nextTick() int {
	k := 0
	for j := 1; j < len(e.ticks); j++ {
		if eventLess(&e.ticks[j].event, &e.ticks[k].event) {
			k = j
		}
	}
	return k
}

// runTick dispatches the next tick of sequence k: it advances the record
// to the following tick, or drops it after the last, then runs fn.
func (e *Engine) runTick(k int, traced bool) {
	t := &e.ticks[k]
	fn := t.fn
	e.now = t.time
	if t.i < t.n {
		t.i++
		t.time, t.seq = float64(t.i)*t.step, t.seq+1
		e.hidden = 1
	} else {
		last := len(e.ticks) - 1
		e.ticks[k] = e.ticks[last]
		e.ticks[last] = ticker{}
		e.ticks = e.ticks[:last]
	}
	e.stats.Dispatched++
	if traced {
		e.trace.Hot(e.now, obs.SimCat, "event",
			obs.I("heap", e.queued()), obs.I("pending", e.Pending()))
	}
	fn()
	if e.hidden == 1 {
		e.hidden = 0
		e.peak()
	}
}

// Handle identifies a scheduled event for cancellation. The zero Handle
// is inert: Cancel on it reports false.
type Handle struct {
	ev  *event
	seq int64
}

// ScheduleCancelable is Schedule returning a Handle the caller may Cancel
// before the event fires (e.g. a reconfiguration-retry timer superseded
// by a fresh workload reaction).
func (e *Engine) ScheduleCancelable(t float64, fn func()) (Handle, error) {
	ev, err := e.schedule(t, fn)
	if err != nil {
		return Handle{}, err
	}
	return Handle{ev: ev, seq: ev.seq}, nil
}

// Cancel prevents a pending event from running. It reports whether the
// event was actually canceled: a Handle whose event already ran — or
// whose *event storage the free list has since recycled into a different
// event — is recognized by its stale sequence number and left alone, so
// canceling late can never kill an unrelated event.
func (e *Engine) Cancel(h Handle) bool {
	if h.ev == nil || h.ev.seq != h.seq || h.ev.fn == nil {
		return false
	}
	h.ev.fn = nil
	e.canceled++
	e.stats.Canceled++
	// Lazy deletion keeps Cancel O(1), but heavy cancel traffic (retry
	// timers superseded on every workload change) would otherwise grow the
	// queue with dead entries and tax every operation. Once the majority
	// of the queue is dead, compact it in one O(n) pass.
	if e.canceled > e.queued()/2 {
		e.compact()
	}
	return true
}

// Run executes events in time order until the queue empties or the clock
// would pass until. The clock ends at until (or the last event time if
// earlier events exhausted the queue).
func (e *Engine) Run(until float64) {
	traced := e.trace.Enabled()
	startDispatched := e.stats.Dispatched
	for {
		if len(e.ticks) > 0 {
			k := e.nextTick()
			if t := &e.ticks[k]; len(e.heap) == 0 || eventLess(&t.event, e.heap[0]) {
				if t.time > until {
					break
				}
				e.runTick(k, traced)
				continue
			}
		}
		if len(e.heap) == 0 || e.heap[0].time > until {
			break
		}
		next := e.pop()
		fn := next.fn
		next.fn = nil // drop the closure before recycling
		e.free = append(e.free, next)
		if fn == nil {
			// Canceled while queued: recycle without running and without
			// advancing the clock.
			e.canceled--
			continue
		}
		e.now = next.time
		e.stats.Dispatched++
		if traced {
			e.trace.Hot(e.now, obs.SimCat, "event",
				obs.I("heap", e.queued()), obs.I("pending", e.Pending()))
		}
		fn()
	}
	if e.now < until {
		e.now = until
	}
	if traced {
		e.trace.Emit(e.now, obs.SimCat, "run",
			obs.I("dispatched", e.stats.Dispatched-startDispatched),
			obs.I("canceled", e.stats.Canceled),
			obs.I("compactions", e.stats.Compactions),
			obs.I("max_heap", e.stats.MaxHeap),
			obs.I("free_list", len(e.free)))
	}
}

// Pending returns the number of queued events that will still run, a
// tick sequence's next tick included (canceled events awaiting recycling
// are not counted).
func (e *Engine) Pending() int { return e.queued() - e.canceled }

type event struct {
	time float64
	seq  int64
	fn   func()
}

// RNG returns a deterministic random stream derived from a base seed and a
// stream label, so repeated runs and parallel streams stay independent and
// reproducible.
func RNG(seed int64, stream string) *rand.Rand {
	h := uint64(seed)
	for _, b := range []byte(stream) {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return rand.New(NewSource(int64(h)))
}
