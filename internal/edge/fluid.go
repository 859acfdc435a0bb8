package edge

import (
	"repro/internal/metrics"
	"repro/internal/obs"
)

// fluidStep is the fluid model's accounting step in seconds.
const fluidStep = 0.01

// fluidModel is the step-accounting serving model: each step admits the
// frames that arrived, serves what the availability-scaled capacity
// allows, and sheds the rest through admitStep.
type fluidModel struct {
	*run
	queue      float64
	batchCarry float64
}

// start queues the run's accounting steps as one engine tick sequence,
// held beside the event heap and dispatched exactly where the steps
// scheduled up front would be.
func (m *fluidModel) start() error {
	return m.eng.Ticks(int(m.scn.Duration/fluidStep+0.5), fluidStep, m.step)
}

func (m *fluidModel) beforeReact(float64) {}
func (m *fluidModel) stalled(float64)     {}
func (m *fluidModel) boardsChanged()      {}

// drain runs one second past the end so the last step, which float
// rounding may place just after Duration, still fires.
func (m *fluidModel) drain() { m.eng.Run(m.scn.Duration + 1) }

// step accounts the fluidStep seconds ending now.
func (m *fluidModel) step() {
	m.meter.hit(modStep)
	now := m.eng.Now()
	dt := fluidStep
	arrived := m.wl.Rate() * dt

	// Fraction of this step the server is stalled.
	stalled := 0.0
	if m.stallUntil > now-dt {
		end := m.stallUntil
		if end > now {
			end = now
		}
		stalled = (end - (now - dt)) / dt
		if stalled < 0 {
			stalled = 0
		}
	}
	avail := 1 - stalled
	capacity := m.serving.FPS * dt * avail

	// Admission control for this step lives in admitStep (shared policy
	// kernel; admission_test.go pins its semantics).
	out := admitStep(m.queue, arrived, capacity, m.cfg.QueueFrames, m.cfg.Deadline, m.serving.FPS, stalled > 0)
	m.queue = out.Queue
	processed := out.Processed
	dropped := out.Dropped()
	if out.Overflow > 0 {
		m.drop(now, out.Overflow, out.OverflowCause)
	}
	if out.Shed > 0 {
		m.drop(now, out.Shed, out.ShedCause)
	}

	procFPS := processed / dt
	power := m.serving.PowerAt(procFPS)*avail + m.serving.IdlePower*stalled
	// Fault rules are matched by span overlap with the step, so fluid and
	// event-level runs agree on windows that touch (or fall between) step
	// boundaries.
	d := m.inj.DriftSpan(now-dt, now)
	sd := m.inj.SustainedSpan(now-dt, now)
	measured := m.measure(now, m.serving.Accuracy, processed, d, sd)
	m.acc.Add(arrived, processed, dropped, measured, power*dt, dt)
	m.acc.AddQueue(m.queue, dt)
	if m.cfg.BatchConfig.Size > 1 && processed > 0 && !m.ctlBatches {
		m.carryBatch(now, processed)
	}
	if m.traced {
		m.tr.Hot(now, obs.EdgeCat, "step",
			obs.F("queue", m.queue),
			obs.F("arrived", arrived),
			obs.F("processed", processed),
			obs.F("stalled", stalled))
	}

	if m.cfg.RecordTrace {
		snap := m.acc.Finalize()
		inst := 0.0
		if arrived > 0 {
			inst = 100 * dropped / arrived
		}
		m.res.Trace = append(m.res.Trace, TracePoint{
			Time:         now,
			IncomingFPS:  m.wl.Rate(),
			ProcessedFPS: procFPS,
			LossPct:      snap.FrameLossPct,
			InstLossPct:  inst,
			QoEPct:       snap.QoEPct,
			Accuracy:     measured,
			PowerW:       power,
			ArrivedCum:   m.acc.Arrived,
			ProcessedCum: m.acc.Processed,
			DroppedCum:   m.acc.Dropped,
		})
	}
}

func (m *fluidModel) drop(now, frames float64, cause metrics.DropCause) {
	m.acc.Drops.Add(cause, frames)
	if m.traced {
		m.tr.Emit(now, obs.EdgeCat, "drop", obs.F("frames", frames), obs.S("cause", cause.String()))
	}
}

// carryBatch is the fluid analog of the event-level micro-batcher:
// processed frames accumulate into a carry; every full batch flushes
// batch-full, and a remainder flushes when the queue drains (idle) or
// under deadline pressure (deadline-slack). At Size <= 1 it never runs,
// so unbatched runs replay byte-identically.
func (m *fluidModel) carryBatch(now, processed float64) {
	b := float64(m.cfg.BatchConfig.Size)
	m.batchCarry += processed
	for m.batchCarry >= b {
		m.batchCarry -= b
		m.acc.Batch.Add(b, metrics.FlushBatchFull)
	}
	if m.batchCarry > 0 {
		if m.queue == 0 {
			m.acc.Batch.Add(m.batchCarry, metrics.FlushIdle)
			m.batchCarry = 0
		} else if m.cfg.Deadline > 0 {
			m.acc.Batch.Add(m.batchCarry, metrics.FlushDeadlineSlack)
			m.batchCarry = 0
		}
	}
	if m.traced {
		m.tr.Hot(now, obs.EdgeCat, "batch",
			obs.F("batches", m.acc.Batch.Batches),
			obs.F("mean", m.acc.Batch.MeanBatch()))
	}
}
