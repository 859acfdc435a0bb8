// Package metrics defines the evaluation metrics of the paper's §V:
// frame loss, Quality of Experience (accuracy × fraction of processed
// frames), power, energy per inference, and power efficiency (processed
// inferences per joule), plus aggregation over repeated simulation runs.
package metrics

import (
	"fmt"
	"math"
)

// Accumulator integrates a single simulation run.
type Accumulator struct {
	Arrived   float64
	Processed float64
	Dropped   float64
	// accWeighted accumulates accuracy × processed frames.
	accWeighted float64
	EnergyJ     float64
	Seconds     float64
	Switches    int
	Reconfigs   int
	Faults      FaultStats
	Drops       DropStats
	Pool        PoolStats
	Batch       BatchStats
	Adapt       AdaptStats

	// queue occupancy integral (frames·seconds) and peak, for latency
	// estimates via Little's law.
	queueIntegral float64
	maxQueue      float64
}

// DropCause classifies why the admission-control layer shed a frame.
// Every dropped frame carries exactly one cause, so overload behaviour is
// an auditable policy rather than an accident.
type DropCause int

// Drop causes. QueueFull: the bounded frame queue overflowed under plain
// overload. DeadlineExceeded: the frame could not be served within the
// configured deadline and was shed rather than served stale. NoHealthyBoard:
// no serving capacity existed at all (every board of the pool dead).
// ReconfigStall: the server was stalled on an FPGA reconfiguration when
// the queue overflowed.
const (
	DropQueueFull DropCause = iota
	DropDeadlineExceeded
	DropNoHealthyBoard
	DropReconfigStall
	numDropCauses
)

var dropCauseNames = [numDropCauses]string{
	DropQueueFull:        "queue-full",
	DropDeadlineExceeded: "deadline-exceeded",
	DropNoHealthyBoard:   "no-healthy-board",
	DropReconfigStall:    "reconfig-stall",
}

// String names the cause (the spelling used in trace events).
func (c DropCause) String() string {
	if c < 0 || c >= numDropCauses {
		return fmt.Sprintf("metrics.DropCause(%d)", int(c))
	}
	return dropCauseNames[c]
}

// DropStats partitions a run's dropped frames by cause. Total always
// equals the run's Dropped counter: every shed frame has exactly one cause.
type DropStats struct {
	QueueFull        float64
	DeadlineExceeded float64
	NoHealthyBoard   float64
	ReconfigStall    float64
}

// Add records frames shed for one cause.
func (d *DropStats) Add(c DropCause, frames float64) {
	switch c {
	case DropDeadlineExceeded:
		d.DeadlineExceeded += frames
	case DropNoHealthyBoard:
		d.NoHealthyBoard += frames
	case DropReconfigStall:
		d.ReconfigStall += frames
	default:
		d.QueueFull += frames
	}
}

// Total sums the shed frames across causes.
func (d DropStats) Total() float64 {
	return d.QueueFull + d.DeadlineExceeded + d.NoHealthyBoard + d.ReconfigStall
}

// ClusterDropCause classifies why the cluster scheduler shed frames that
// never reached a pool's admission queue. The pool-level causes
// (DropCause) keep their meaning inside each pool's serving loop; these
// three exist only above it.
type ClusterDropCause int

// Cluster drop causes. NoPoolCapacity: the stream could not be placed on
// any pool with effective headroom (its arrivals are shed until a
// rebalance finds room). TenantThrottled: cluster-wide admission control
// denied the stream because its tenant's demand exceeded the admissible
// share (lowest priority classes are throttled first). Migrating: frames
// that arrived during a stream's migration blackout between pools.
const (
	ClusterNoPoolCapacity ClusterDropCause = iota
	ClusterTenantThrottled
	ClusterMigrating
	numClusterDropCauses
)

var clusterDropCauseNames = [numClusterDropCauses]string{
	ClusterNoPoolCapacity:  "no-pool-capacity",
	ClusterTenantThrottled: "tenant-throttled",
	ClusterMigrating:       "migrating",
}

// String names the cause (the spelling used in trace events).
func (c ClusterDropCause) String() string {
	if c < 0 || c >= numClusterDropCauses {
		return fmt.Sprintf("metrics.ClusterDropCause(%d)", int(c))
	}
	return clusterDropCauseNames[c]
}

// ClusterDrops partitions a cluster run's dropped frames by cause: the
// pool-level admission causes rolled up across the fleet, plus the three
// cluster-only causes. Total always equals the cluster run's Dropped
// counter — every shed frame carries exactly one cause, at exactly one
// level.
type ClusterDrops struct {
	// Pool rolls up the per-pool admission shedding (queue-full,
	// deadline-exceeded, no-healthy-board, reconfig-stall) across every
	// pool and epoch.
	Pool DropStats
	// NoPoolCapacity, TenantThrottled, Migrating are the cluster-level
	// causes (see ClusterDropCause).
	NoPoolCapacity  float64
	TenantThrottled float64
	Migrating       float64
}

// Add records frames shed for one cluster-level cause.
func (d *ClusterDrops) Add(c ClusterDropCause, frames float64) {
	switch c {
	case ClusterTenantThrottled:
		d.TenantThrottled += frames
	case ClusterMigrating:
		d.Migrating += frames
	default:
		d.NoPoolCapacity += frames
	}
}

// AddPool rolls one pool run's per-cause shedding into the cluster total.
func (d *ClusterDrops) AddPool(p DropStats) {
	d.Pool.QueueFull += p.QueueFull
	d.Pool.DeadlineExceeded += p.DeadlineExceeded
	d.Pool.NoHealthyBoard += p.NoHealthyBoard
	d.Pool.ReconfigStall += p.ReconfigStall
}

// Total sums the shed frames across every cause, both levels.
func (d ClusterDrops) Total() float64 {
	return d.Pool.Total() + d.NoPoolCapacity + d.TenantThrottled + d.Migrating
}

// PoolStats counts fleet-level robustness actions of a supervised
// multi-board pool (all zero for single-board runs).
type PoolStats struct {
	// BoardsDied: serving boards declared dead (crash, or hang past the
	// miss threshold); BoardsRecovered: boards that completed repair and
	// rejoined the pool (as servers or standbys).
	BoardsDied      int
	BoardsRecovered int
	// Failovers: redistributions of the stream triggered by a serving
	// board dying.
	Failovers int
	// StandbyPromotions: hot standbys promoted into the serving set.
	StandbyPromotions int
	// DegradedEntries: times the pool fell below quorum and relaxed the
	// accuracy threshold on the survivors rather than dropping the stream.
	DegradedEntries int
}

// FlushCause classifies why the micro-batcher dispatched a batch. Every
// dispatched batch carries exactly one cause, mirroring the one-cause-per-
// drop discipline of the admission taxonomy.
type FlushCause int

// Flush causes. BatchFull: the batch reached SimConfig.BatchConfig.Size frames.
// DeadlineSlack: the batch was cut short so its oldest frame still meets
// the serving deadline with the configured slack. Idle: the queue drained
// below the batch size and the batcher served what it had rather than
// holding frames back (low-rate streams keep single-frame latency).
const (
	FlushBatchFull FlushCause = iota
	FlushDeadlineSlack
	FlushIdle
	numFlushCauses
)

var flushCauseNames = [numFlushCauses]string{
	FlushBatchFull:     "batch-full",
	FlushDeadlineSlack: "deadline-slack",
	FlushIdle:          "idle",
}

// String names the cause (the spelling used in trace events).
func (c FlushCause) String() string {
	if c < 0 || c >= numFlushCauses {
		return fmt.Sprintf("metrics.FlushCause(%d)", int(c))
	}
	return flushCauseNames[c]
}

// BatchStats summarizes a run's micro-batching: how many batches were
// dispatched, how many frames they carried, the largest batch served, and
// why each batch flushed. All zero for unbatched (Batch <= 1) runs.
// Frames counts only batched service, so Frames <= Processed.
type BatchStats struct {
	Batches  float64
	Frames   float64
	MaxBatch float64
	// Flush-cause counters; FullFlushes+SlackFlushes+IdleFlushes == Batches.
	FullFlushes  float64
	SlackFlushes float64
	IdleFlushes  float64
}

// Add records one dispatched batch of the given size.
func (b *BatchStats) Add(size float64, c FlushCause) {
	b.Batches++
	b.Frames += size
	if size > b.MaxBatch {
		b.MaxBatch = size
	}
	switch c {
	case FlushDeadlineSlack:
		b.SlackFlushes++
	case FlushIdle:
		b.IdleFlushes++
	default:
		b.FullFlushes++
	}
}

// MeanBatch returns the mean dispatched batch size (0 when no batches).
func (b BatchStats) MeanBatch() float64 {
	if b.Batches == 0 {
		return 0
	}
	return b.Frames / b.Batches
}

// Merge folds another run's batch counters into b (max of maxes, sum of
// the rest) — used when aggregating per-board or per-pool batching.
func (b *BatchStats) Merge(o BatchStats) {
	b.Batches += o.Batches
	b.Frames += o.Frames
	if o.MaxBatch > b.MaxBatch {
		b.MaxBatch = o.MaxBatch
	}
	b.FullFlushes += o.FullFlushes
	b.SlackFlushes += o.SlackFlushes
	b.IdleFlushes += o.IdleFlushes
}

// FaultStats counts injected faults and the degradation reactions of a
// chaos run (all zero in fault-free runs).
type FaultStats struct {
	// ReconfigFailures: attempted FPGA reconfigurations that failed (the
	// stall was paid, the old configuration kept serving).
	ReconfigFailures int
	// ReconfigStalls: reconfigurations that succeeded but took longer
	// than their nominal time.
	ReconfigStalls int
	// SensorDropouts: workload observations lost (the controller pinned
	// its last-known-good configuration).
	SensorDropouts int
	// SensorSpikes: workload observations perturbed by noise.
	SensorSpikes int
	// AccuracyDrifts: accounting steps whose measured accuracy was
	// perturbed by evaluator drift.
	AccuracyDrifts int
	// SustainedDrifts: accounting steps (fluid) or frames (event-level)
	// whose measured accuracy was lowered by an engaged sustained
	// distribution shift (fault kind drift-sustained).
	SustainedDrifts int
	// Degradations: times a Runtime Manager exhausted its reconfiguration
	// retry budget and fell back to the Flexible accelerator.
	Degradations int
	// BoardCrashes .. BoardBrownouts: board-level injections observed by a
	// supervised pool (zero for single-board runs).
	BoardCrashes     int
	BoardHangs       int
	FrameCorruptions int
	BoardBrownouts   int
}

// AdaptStats counts the closed-loop drift-recovery actions of a run
// (internal/adapt); all zero when adaptation is disabled.
type AdaptStats struct {
	// Detections: sustained-drift detections that triggered a background
	// retrain.
	Detections int
	// Retrains: background retrains completed (whether or not the
	// candidate passed validation).
	Retrains int
	// Swaps: candidate libraries hot-swapped into serving.
	Swaps int
	// Rollbacks: failed candidates — validation failures and probation
	// regressions — each charging the quarantine backoff.
	Rollbacks int
	// RecoveredPoints is the processed-weighted mean accuracy the active
	// compensation won back, in accuracy points on the [0,1] scale.
	RecoveredPoints float64
}

// AddQueue records the queue occupancy over a dt-long step.
func (a *Accumulator) AddQueue(frames, dt float64) {
	a.queueIntegral += frames * dt
	if frames > a.maxQueue {
		a.maxQueue = frames
	}
}

// Add records one accounting step.
func (a *Accumulator) Add(arrived, processed, dropped, accuracy, energyJ, dt float64) {
	a.Arrived += arrived
	a.Processed += processed
	a.Dropped += dropped
	a.accWeighted += accuracy * processed
	a.EnergyJ += energyJ
	a.Seconds += dt
}

// RunStats summarizes one finished run.
type RunStats struct {
	Arrived      float64
	Processed    float64
	Dropped      float64
	FrameLossPct float64
	AvgAccuracy  float64 // processed-weighted, [0,1]
	QoEPct       float64 // accuracy × processed fraction, percent
	AvgPowerW    float64
	EnergyJ      float64
	EnergyPerInf float64 // J per processed inference
	PowerEff     float64 // processed inferences per joule
	Switches     int
	Reconfigs    int
	Faults       FaultStats
	// Drops partitions Dropped by cause; Drops.Total() == Dropped.
	Drops DropStats
	// Pool counts fleet-level supervision actions (zero for single-board
	// runs).
	Pool PoolStats
	// Batch summarizes micro-batched service (zero for Batch <= 1 runs).
	Batch BatchStats
	// Adapt counts closed-loop drift-recovery actions (zero when the
	// SimConfig Adapt group is disabled).
	Adapt AdaptStats
	// AvgQueueFrames is the time-averaged server queue occupancy;
	// AvgLatencyMS the implied mean queueing delay of a processed frame
	// (Little's law: L = λ·W); MaxQueueFrames the peak occupancy.
	AvgQueueFrames float64
	AvgLatencyMS   float64
	MaxQueueFrames float64
}

// Finalize computes the run summary.
func (a *Accumulator) Finalize() RunStats {
	s := RunStats{
		Arrived:   a.Arrived,
		Processed: a.Processed,
		Dropped:   a.Dropped,
		EnergyJ:   a.EnergyJ,
		Switches:  a.Switches,
		Reconfigs: a.Reconfigs,
		Faults:    a.Faults,
		Drops:     a.Drops,
		Pool:      a.Pool,
		Batch:     a.Batch,
		Adapt:     a.Adapt,
	}
	if a.Arrived > 0 {
		s.FrameLossPct = 100 * a.Dropped / a.Arrived
	}
	if a.Processed > 0 {
		s.AvgAccuracy = a.accWeighted / a.Processed
		s.EnergyPerInf = a.EnergyJ / a.Processed
	}
	if a.Arrived > 0 {
		s.QoEPct = 100 * s.AvgAccuracy * (a.Processed / a.Arrived)
	}
	if a.Seconds > 0 {
		s.AvgPowerW = a.EnergyJ / a.Seconds
	}
	if a.EnergyJ > 0 {
		s.PowerEff = a.Processed / a.EnergyJ
	}
	if a.Seconds > 0 {
		s.AvgQueueFrames = a.queueIntegral / a.Seconds
		throughput := a.Processed / a.Seconds
		if throughput > 0 {
			s.AvgLatencyMS = s.AvgQueueFrames / throughput * 1e3
		}
	}
	s.MaxQueueFrames = a.maxQueue
	return s
}

// Mean averages runs field-wise. It panics on an empty slice via the
// returned error instead: it reports an error for empty input.
func Mean(runs []RunStats) (RunStats, error) {
	if len(runs) == 0 {
		return RunStats{}, fmt.Errorf("metrics: no runs to aggregate")
	}
	var m RunStats
	n := float64(len(runs))
	for _, r := range runs {
		m.Arrived += r.Arrived / n
		m.Processed += r.Processed / n
		m.Dropped += r.Dropped / n
		m.FrameLossPct += r.FrameLossPct / n
		m.AvgAccuracy += r.AvgAccuracy / n
		m.QoEPct += r.QoEPct / n
		m.AvgPowerW += r.AvgPowerW / n
		m.EnergyJ += r.EnergyJ / n
		m.EnergyPerInf += r.EnergyPerInf / n
		m.PowerEff += r.PowerEff / n
		m.AvgQueueFrames += r.AvgQueueFrames / n
		m.AvgLatencyMS += r.AvgLatencyMS / n
		m.Drops.QueueFull += r.Drops.QueueFull / n
		m.Drops.DeadlineExceeded += r.Drops.DeadlineExceeded / n
		m.Drops.NoHealthyBoard += r.Drops.NoHealthyBoard / n
		m.Drops.ReconfigStall += r.Drops.ReconfigStall / n
		m.Batch.Batches += r.Batch.Batches / n
		m.Batch.Frames += r.Batch.Frames / n
		m.Batch.FullFlushes += r.Batch.FullFlushes / n
		m.Batch.SlackFlushes += r.Batch.SlackFlushes / n
		m.Batch.IdleFlushes += r.Batch.IdleFlushes / n
		m.Adapt.RecoveredPoints += r.Adapt.RecoveredPoints / n
		if r.Batch.MaxBatch > m.Batch.MaxBatch {
			m.Batch.MaxBatch = r.Batch.MaxBatch
		}
		if r.MaxQueueFrames > m.MaxQueueFrames {
			m.MaxQueueFrames = r.MaxQueueFrames
		}
	}
	var sw, rc float64
	var ft [11]float64
	var pl [5]float64
	var ad [4]float64
	for _, r := range runs {
		sw += float64(r.Switches)
		rc += float64(r.Reconfigs)
		ft[0] += float64(r.Faults.ReconfigFailures)
		ft[1] += float64(r.Faults.ReconfigStalls)
		ft[2] += float64(r.Faults.SensorDropouts)
		ft[3] += float64(r.Faults.SensorSpikes)
		ft[4] += float64(r.Faults.AccuracyDrifts)
		ft[5] += float64(r.Faults.SustainedDrifts)
		ft[6] += float64(r.Faults.Degradations)
		ft[7] += float64(r.Faults.BoardCrashes)
		ft[8] += float64(r.Faults.BoardHangs)
		ft[9] += float64(r.Faults.FrameCorruptions)
		ft[10] += float64(r.Faults.BoardBrownouts)
		pl[0] += float64(r.Pool.BoardsDied)
		pl[1] += float64(r.Pool.BoardsRecovered)
		pl[2] += float64(r.Pool.Failovers)
		pl[3] += float64(r.Pool.StandbyPromotions)
		pl[4] += float64(r.Pool.DegradedEntries)
		ad[0] += float64(r.Adapt.Detections)
		ad[1] += float64(r.Adapt.Retrains)
		ad[2] += float64(r.Adapt.Swaps)
		ad[3] += float64(r.Adapt.Rollbacks)
	}
	m.Switches = int(math.Round(sw / n))
	m.Reconfigs = int(math.Round(rc / n))
	m.Faults = FaultStats{
		ReconfigFailures: int(math.Round(ft[0] / n)),
		ReconfigStalls:   int(math.Round(ft[1] / n)),
		SensorDropouts:   int(math.Round(ft[2] / n)),
		SensorSpikes:     int(math.Round(ft[3] / n)),
		AccuracyDrifts:   int(math.Round(ft[4] / n)),
		SustainedDrifts:  int(math.Round(ft[5] / n)),
		Degradations:     int(math.Round(ft[6] / n)),
		BoardCrashes:     int(math.Round(ft[7] / n)),
		BoardHangs:       int(math.Round(ft[8] / n)),
		FrameCorruptions: int(math.Round(ft[9] / n)),
		BoardBrownouts:   int(math.Round(ft[10] / n)),
	}
	m.Pool = PoolStats{
		BoardsDied:        int(math.Round(pl[0] / n)),
		BoardsRecovered:   int(math.Round(pl[1] / n)),
		Failovers:         int(math.Round(pl[2] / n)),
		StandbyPromotions: int(math.Round(pl[3] / n)),
		DegradedEntries:   int(math.Round(pl[4] / n)),
	}
	m.Adapt.Detections = int(math.Round(ad[0] / n))
	m.Adapt.Retrains = int(math.Round(ad[1] / n))
	m.Adapt.Swaps = int(math.Round(ad[2] / n))
	m.Adapt.Rollbacks = int(math.Round(ad[3] / n))
	return m, nil
}
