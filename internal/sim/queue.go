package sim

// The engine's pending events form a binary min-heap on (time, seq) in
// Engine.heap: nondecreasing time, FIFO within a time. The heap holds
// canceled events (fn == nil) until they are popped or compacted; the
// Engine owns that lazy-deletion accounting. The methods are on Engine,
// not behind an interface, so every call is direct and push inlines.

func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push adds ev to the heap.
func (e *Engine) push(ev *event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// pop removes and returns the least event; the heap must not be empty.
func (e *Engine) pop() *event {
	h := e.heap
	n := len(h) - 1
	top := h[0]
	h[0], h[n] = h[n], nil
	e.heap = h[:n]
	e.down(0)
	return top
}

// down sifts the event at slot i below any smaller child.
func (e *Engine) down(i int) {
	h := e.heap
	if i >= len(h) {
		return
	}
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && eventLess(h[r], h[c]) {
			c = r
		}
		if !eventLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// compact removes every canceled event from the heap, recycling its
// storage, and restores the heap order of the live ones.
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, ev := range e.heap {
		if ev.fn == nil {
			e.free = append(e.free, ev)
		} else {
			live = append(live, ev)
		}
	}
	clear(e.heap[len(live):])
	e.heap = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.down(i)
	}
	e.canceled = 0
	e.stats.Compactions++
}
