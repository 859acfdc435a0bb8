package edge

import (
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RunEventLevel is Run with cfg.EventLevel set. It stays only because
// the bench module calls it; new code sets SimConfig.EventLevel.
func RunEventLevel(scn Scenario, ctl Controller, cfg SimConfig, opts ...RunOption) (*Result, error) {
	cfg.EventLevel = true
	return Run(scn, ctl, cfg, opts...)
}

// eventModel is the per-frame queue serving model (SimConfig.EventLevel):
// one arrival event per frame, one completion event per service, exact
// queueing delays. It is an order of magnitude slower than the fluid
// model and exists to validate it (the tests check that both models agree
// on frame loss and QoE) and to measure true per-frame latency rather than
// Little's-law estimates. Frames arrive with deterministic spacing at the
// current rate, or with exponential gaps when PoissonArrivals is set, and
// wait in a bounded queue. The server takes one frame at a time, or with
// micro-batching up to BatchConfig.Size.
type eventModel struct {
	*run
	arrivals   *rand.Rand
	queue      []float64 // arrival timestamps of queued frames
	store      []float64 // queue's backing array, from its start
	busy       bool
	lastPowerT float64 // integration cursor for idle power

	// The frames in service: their arrival times, the serving
	// configuration they run on, and (batched) the flush cause.
	inflight []float64
	cur      Serving
	cause    metrics.FlushCause

	// Hoisted event bodies, bound once per run.
	arriveFn, recheckFn, doneFn, wakeFn func()
}

func (m *eventModel) start() error {
	m.arrivals = sim.RNG(m.cfg.Seed, "arrivals/"+m.scn.Name)
	m.arriveFn = m.arrive
	m.recheckFn = func() { m.scheduleArrival(m.eng.Now()) }
	m.doneFn = m.done
	m.wakeFn = func() {
		m.meter.hit(modStallWake)
		m.startService()
	}
	m.scheduleArrival(0)
	return nil
}

// beforeReact charges idle power up to now at the outgoing configuration.
func (m *eventModel) beforeReact(now float64) { m.integrate(now) }

// stalled wakes the server when the stall ends.
func (m *eventModel) stalled(until float64) { m.at(until, m.wakeFn) }

// boardsChanged kicks the service loop: a topology change may both alter
// serving and unblock the queue.
func (m *eventModel) boardsChanged() { m.startService() }

func (m *eventModel) drain() {
	d := m.scn.Duration
	m.eng.Run(d)
	m.integrate(d)
	m.acc.Seconds = d
}

// integrate charges idle power up to now.
func (m *eventModel) integrate(now float64) {
	if now > m.lastPowerT {
		m.acc.EnergyJ += m.serving.IdlePower * (now - m.lastPowerT)
		m.lastPowerT = now
	}
}

// scheduleArrival queues the frame after the one that arrived at t.
func (m *eventModel) scheduleArrival(t float64) {
	rate := m.wl.Rate()
	if rate <= 0 {
		// Re-check at the next workload boundary.
		if nb := m.wl.NextBoundary(t); nb < m.scn.Duration {
			m.at(nb+1e-9, m.recheckFn)
		}
		return
	}
	gap := 1 / rate
	if m.cfg.PoissonArrivals {
		gap = m.arrivals.ExpFloat64() / rate
	}
	if next := t + gap; next < m.scn.Duration {
		m.at(next, m.arriveFn)
	}
}

// arrive admits one frame, or drops it with its cause when the queue is
// full.
func (m *eventModel) arrive() {
	m.meter.hit(modArrival)
	now := m.eng.Now()
	m.integrate(now)
	if float64(len(m.queue)) >= m.cfg.QueueFrames {
		m.acc.Add(1, 0, 1, 0, 0, 0)
		cause := metrics.DropQueueFull
		if m.serving.FPS <= 0 {
			cause = metrics.DropNoHealthyBoard
		} else if now < m.stallUntil {
			cause = metrics.DropReconfigStall
		}
		m.drop(now, cause)
	} else {
		m.acc.Add(1, 0, 0, 0, 0, 0)
		m.enqueue(now)
		m.startService()
	}
	m.scheduleArrival(now)
}

// enqueue appends an arrival time. Dequeuing slices frames off the head,
// so before the queue would grow, its frames slide back to the start of
// the backing array: the queue allocates only when it gets deeper.
func (m *eventModel) enqueue(at float64) {
	if len(m.queue) == cap(m.queue) && len(m.queue) < cap(m.store) {
		m.queue = m.store[:copy(m.store[:cap(m.store)], m.queue)]
	}
	m.queue = append(m.queue, at)
	if cap(m.queue) > cap(m.store) {
		m.store = m.queue[:0]
	}
}

func (m *eventModel) drop(now float64, cause metrics.DropCause) {
	m.acc.Drops.Add(cause, 1)
	if m.traced {
		m.tr.Hot(now, obs.EdgeCat, "drop", obs.F("frames", 1), obs.S("cause", cause.String()))
	}
}

// startService dispatches the head of the queue when the server is free.
func (m *eventModel) startService() {
	now := m.eng.Now()
	if m.busy || len(m.queue) == 0 || now < m.stallUntil || m.serving.FPS <= 0 {
		return
	}
	if m.cfg.Deadline > 0 {
		// Shed frames already past the deadline instead of serving them
		// stale.
		for len(m.queue) > 0 && now-m.queue[0] > m.cfg.Deadline {
			m.queue = m.queue[1:]
			m.acc.Add(0, 0, 1, 0, 0, 0)
			m.drop(now, metrics.DropDeadlineExceeded)
		}
		if len(m.queue) == 0 {
			return
		}
	}
	k := 1
	if m.cfg.BatchConfig.Size > 1 {
		k, m.cause = m.batchSize(now)
	}
	m.busy = true
	m.inflight = append(m.inflight[:0], m.queue[:k]...)
	m.queue = m.queue[k:]
	m.cur = m.serving
	m.at(now+float64(k)/m.cur.FPS, m.doneFn)
}

// batchSize picks how many queued frames one micro-batched dispatch
// serves, and why it flushes. The batch is cut short when the oldest
// frame's deadline slack would run out — batching never causes a miss
// that single-frame serving would not, because a size-k batch finishes at
// now + k/FPS, which the slack bound keeps inside the oldest frame's
// deadline (later frames have later deadlines).
func (m *eventModel) batchSize(now float64) (int, metrics.FlushCause) {
	k, cause := m.cfg.BatchConfig.Size, metrics.FlushBatchFull
	if len(m.queue) < k {
		k, cause = len(m.queue), metrics.FlushIdle
	}
	if m.cfg.Deadline > 0 {
		slack := 1 / m.serving.FPS
		if kMax := int((m.queue[0] + m.cfg.Deadline - slack - now) * m.serving.FPS); kMax < k {
			k, cause = kMax, metrics.FlushDeadlineSlack
		}
	}
	if k < 1 {
		// A single frame is exactly what unbatched serving would dispatch
		// here; it misses only if that would too.
		k, cause = 1, metrics.FlushDeadlineSlack
	}
	return k, cause
}

// done completes the frames in service.
func (m *eventModel) done() {
	m.meter.hit(modService)
	m.busy = false
	now := m.eng.Now()
	m.integrate(now)
	n := len(m.inflight)
	measured := m.measure(now, m.cur.Accuracy, float64(n), m.inj.Drift(now), m.inj.Sustained(now))
	// Per-inference energy implied by the serving power model.
	e := m.cur.PowerAt(1) - m.cur.IdlePower
	for _, at := range m.inflight {
		m.acc.Add(0, 1, 0, measured, e, 0)
		m.latencySum += now - at
		m.latencyN++
	}
	if m.cfg.BatchConfig.Size > 1 {
		if !m.ctlBatches {
			m.acc.Batch.Add(float64(n), m.cause)
		}
		if m.traced {
			m.tr.Hot(now, obs.EdgeCat, "batch",
				obs.I("size", n),
				obs.S("cause", m.cause.String()),
				obs.F("oldest_latency_ms", (now-m.inflight[0])*1e3),
				obs.I("queue", len(m.queue)))
		}
	} else if m.traced {
		m.tr.Hot(now, obs.EdgeCat, "frame",
			obs.F("latency_ms", (now-m.inflight[0])*1e3),
			obs.I("queue", len(m.queue)))
	}
	m.startService()
}
