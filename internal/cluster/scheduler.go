package cluster

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/multiedge"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Concurrency cap for per-pool epoch dispatch, registered in the
// parallel knob registry so adaflow.SetParallelism drives it together
// with the repo's other caps. The cap only changes wall-clock time:
// placement and aggregation are serial, so results are bit-identical at
// any worker count.
var maxWorkers = parallel.RegisterKnob("cluster.pools", runtime.NumCPU())

// Config tunes a cluster scheduler.
type Config struct {
	// Pools is the fleet size (required, >= 1).
	Pools int
	// BoardsPerPool is each pool's serving-set size (default 4); Standby
	// adds hot spares per pool.
	BoardsPerPool int
	Standby       int
	// EpochSeconds is the placement epoch length (default 5): placement
	// holds within an epoch, rebalancing happens at epoch boundaries.
	EpochSeconds float64
	// Epochs is how many epochs to run (default 5).
	Epochs int
	// TenantShare, when positive, caps any one tenant at that fraction of
	// the cluster's usable capacity; excess streams are throttled lowest
	// priority first. Zero disables the per-tenant cap (priority-ordered
	// admission against total capacity still applies).
	TenantShare float64
	// Seed drives every workload RNG; FaultSeed the fault draws. Equal
	// seeds and configs replay bit-identically.
	Seed int64
	// FaultPlan, when non-nil, injects faults; FaultPools restricts it to
	// those pool indices (nil targets every pool). Rule windows are in
	// cluster time and are rebased into each epoch's local clock.
	FaultPlan  *fault.Plan
	FaultPools []int
	FaultSeed  int64
	// QueueFrames and Deadline pass through to each pool's edge.Run,
	// which accounts at its default step; Deadline is the default SLO for
	// streams that declare none (a pool serves at the tightest SLO placed
	// on it).
	QueueFrames float64
	Deadline    float64
	// Batch enables micro-batched service on every pool (see
	// edge.SimConfig.BatchConfig): it configures the pools' per-board
	// dispatch queues, whose counters each epoch's edge.Run drains into
	// its result. Batch <= 1 keeps the historical single-frame serving
	// bit-identical.
	Batch int
	// Manager configures every board's Runtime Manager.
	Manager manager.Config
}

// Validate reports a knob the scheduler cannot honour. Zero selects each
// default, as do non-positive BoardsPerPool, EpochSeconds and Epochs; a
// zero TenantShare disables the per-tenant cap.
func (c *Config) Validate() error {
	switch {
	case c.Pools <= 0:
		return fmt.Errorf("cluster: fleet needs at least one pool, got %d", c.Pools)
	case math.IsNaN(c.EpochSeconds) || math.IsInf(c.EpochSeconds, 0):
		return fmt.Errorf("cluster: EpochSeconds %v must be a finite number of seconds", c.EpochSeconds)
	case math.IsNaN(c.TenantShare) || c.TenantShare < 0:
		return fmt.Errorf("cluster: TenantShare %v must be non-negative", c.TenantShare)
	}
	for _, p := range c.FaultPools {
		if p < 0 || p >= c.Pools {
			return fmt.Errorf("cluster: fault pool index %d outside fleet [0,%d)", p, c.Pools)
		}
	}
	return nil
}

func (c *Config) defaults() {
	if c.BoardsPerPool <= 0 {
		c.BoardsPerPool = 4
	}
	if c.EpochSeconds <= 0 {
		c.EpochSeconds = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.Manager == (manager.Config{}) {
		c.Manager = manager.DefaultConfig()
	}
}

// Placement constants.
const (
	// headroom is the fraction of each pool's effective capacity the
	// placer refuses to commit, absorbing workload fluctuation without
	// immediate queue overflow.
	headroom = 0.1
	// migrationBlackout is the serving gap a migrated stream pays at its
	// new pool, in seconds (clamped to the epoch). Blackout frames drop
	// with the exclusive cause migrating.
	migrationBlackout = 0.5
)

// Migration records one stream moved between pools at an epoch boundary.
type Migration struct {
	Stream   int // index into the streams passed to New
	From, To int
}

// EpochReport is the serial placer's full decision record for one epoch
// — what the property suite asserts invariants against. A stream is
// named by its index into the streams passed to New.
type EpochReport struct {
	Epoch int
	// Capacity is each pool's usable capacity at placement time
	// (health-weighted effective capacity less headroom); Assigned is the
	// nominal rate placed on it.
	Capacity []float64
	Assigned []float64
	// Placed holds each stream's pool, or -1 for a stream shed this
	// epoch: one slot per stream, so no frame is ever double-served.
	Placed []int
	// Migrated lists streams that changed pools this epoch (each pays the
	// migration blackout); Throttled and Unplaced list the streams shed
	// for the whole epoch with causes tenant-throttled / no-pool-capacity.
	// All three run in placement order.
	Migrated  []Migration
	Throttled []int
	Unplaced  []int
}

// TenantStats aggregates one tenant's served and shed frames. Pool-level
// figures are attributed to tenants in proportion to their placed rate
// on each pool; analytic drops (throttle, no capacity, migration
// blackout) are attributed exactly.
type TenantStats struct {
	Class     Priority // highest class among the tenant's streams
	Streams   int
	Arrived   float64
	Processed float64
	Dropped   float64
}

// Result of one cluster run.
type Result struct {
	Streams, Pools, Epochs int
	Arrived                float64
	Processed              float64
	Dropped                float64
	FrameLossPct           float64
	// Drops partitions every dropped frame by its single cause;
	// Drops.Total() == Dropped is the cluster conservation invariant.
	Drops metrics.ClusterDrops
	// Migrations counts stream moves; Throttled and Unplaced count
	// stream-epochs shed by admission and placement.
	Migrations int
	Throttled  int
	Unplaced   int
	// Pool sums supervision counters across the fleet.
	Pool metrics.PoolStats
	// Batch sums the pools' per-board micro-batched dispatch counters
	// across every epoch (zero when Config.Batch <= 1).
	Batch   metrics.BatchStats
	Tenants map[string]*TenantStats
	Reports []EpochReport
}

// Scheduler places a declared stream set onto a fleet of supervised
// pools and runs them epoch by epoch. Create with New, run with Run.
type Scheduler struct {
	lib *library.Library
	cfg Config
	// streams holds the defaulted specs in the caller's order: an index
	// into it names a stream from admission to the reports. order is the
	// placement order, as indices into streams.
	streams []StreamSpec
	order   []int
	pools   []*multiedge.Pool
	nominal float64 // per-board capacity estimate for unscored boards
	trace   *obs.Trace
	scr     epochScratch
}

// epochScratch holds buffers the serial control loop (placeEpoch,
// dispatch, aggregate) reuses across epochs, so steady-state scheduling
// allocates per retained result, not per epoch. Everything here is either
// copied before being retained in an EpochReport or dead once the epoch's
// aggregation completes.
type epochScratch struct {
	caps    []float64
	load    []float64
	rem     []float64 // placer remaining-capacity buffer
	keptIdx [][]int
	// byPool and blackout back the epochPlan fields of the same name.
	byPool   [][]int
	blackout []bool
	results  []*edge.Result
	loads    [][]edge.Load
	// admit's outputs and its per-tenant tally.
	admitted  []int
	throttled []int
	perTenant map[string]float64
}

// reset sizes the scratch for the scheduler's pools and streams (first
// epoch) and clears every buffer for reuse.
func (sc *epochScratch) reset(pools, streams int) {
	if len(sc.caps) != pools {
		sc.caps = make([]float64, pools)
		sc.load = make([]float64, pools)
		sc.rem = make([]float64, pools)
		sc.keptIdx = make([][]int, pools)
		sc.byPool = make([][]int, pools)
		sc.blackout = make([]bool, streams)
		sc.results = make([]*edge.Result, pools)
		sc.loads = make([][]edge.Load, pools)
		sc.perTenant = make(map[string]float64)
	}
	for i := 0; i < pools; i++ {
		sc.load[i] = 0
		sc.keptIdx[i] = sc.keptIdx[i][:0]
		sc.byPool[i] = sc.byPool[i][:0]
		sc.results[i] = nil
	}
	clear(sc.blackout)
	sc.admitted = sc.admitted[:0]
	sc.throttled = sc.throttled[:0]
}

// New builds a scheduler over a shared library. Stream names must be
// unique; every spec is validated.
func New(lib *library.Library, streams []StreamSpec, cfg Config) (*Scheduler, error) {
	if lib == nil {
		return nil, fmt.Errorf("cluster: nil library")
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("cluster: no streams declared")
	}
	if len(streams) > MaxStreams {
		return nil, fmt.Errorf("cluster: %d streams declared, more than %d", len(streams), MaxStreams)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	seen := make(map[string]bool, len(streams))
	specs := make([]StreamSpec, len(streams))
	for i, s := range streams {
		s.defaults()
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate stream name %q", s.Name)
		}
		seen[s.Name] = true
		specs[i] = s
	}
	s := &Scheduler{lib: lib, cfg: cfg, streams: specs, order: orderStreams(specs)}
	for i := 0; i < cfg.Pools; i++ {
		p, err := multiedge.NewSupervisedPool(lib, multiedge.Config{
			Boards: cfg.BoardsPerPool, Standby: cfg.Standby, Manager: cfg.Manager,
			Batch: cfg.Batch,
		})
		if err != nil {
			return nil, err
		}
		s.pools = append(s.pools, p)
	}
	// Boards that have never reacted report no throughput yet; score them
	// at the fastest configuration a manager may actually select — the
	// library's best throughput within the accuracy threshold. Versions
	// past the threshold are banned at run time, so counting them would
	// overcommit every pool on the first epoch.
	floor := lib.BaselineAccuracy() - cfg.Manager.AccuracyThreshold
	for _, e := range lib.Entries {
		if e.Accuracy < floor {
			continue
		}
		if e.FixedFPS > s.nominal {
			s.nominal = e.FixedFPS
		}
		if e.FlexFPS > s.nominal {
			s.nominal = e.FlexFPS
		}
	}
	if s.nominal <= 0 {
		return nil, fmt.Errorf("cluster: library has no configuration within accuracy threshold %v", cfg.Manager.AccuracyThreshold)
	}
	return s, nil
}

// SetTracer attaches an observability trace. Cluster-category events are
// emitted only from the serial control loop, so traces filtered to
// obs.ClusterCat are byte-identical at any worker count; pool-internal
// events are not threaded through the dispatcher.
func (s *Scheduler) SetTracer(tr *obs.Trace) { s.trace = tr }

// epochPlan carries one epoch's placement from the serial placer to the
// parallel dispatcher.
type epochPlan struct {
	rep EpochReport
	// byPool holds each pool's placed streams; blackout flags, per
	// stream, the ones paying the migration gap this epoch.
	byPool   [][]int
	blackout []bool
}

// faultPlanFor rebases the cluster fault plan into epoch e's local clock
// for pool i: rule windows shift by the epoch offset and rules whose
// windows fall entirely outside the epoch are dropped; pools outside
// FaultPools get no plan at all.
func (s *Scheduler) faultPlanFor(pool, epoch int) *fault.Plan {
	if s.cfg.FaultPlan == nil {
		return nil
	}
	if len(s.cfg.FaultPools) > 0 {
		hit := false
		for _, p := range s.cfg.FaultPools {
			if p == pool {
				hit = true
				break
			}
		}
		if !hit {
			return nil
		}
	}
	shift := float64(epoch) * s.cfg.EpochSeconds
	e := s.cfg.EpochSeconds
	out := &fault.Plan{}
	for _, r := range s.cfg.FaultPlan.Rules {
		start := r.Start - shift
		if r.End != 0 {
			end := r.End - shift
			if end <= 0 {
				continue // expired before this epoch
			}
			r.End = end
		}
		if start < 0 {
			start = 0
		}
		if start >= e {
			continue // not yet active this epoch
		}
		r.Start = start
		out.Rules = append(out.Rules, r)
	}
	if len(out.Rules) == 0 {
		return nil
	}
	return out
}

// faultSeedFor derives the per-(pool,epoch) fault seed. Each pool draws
// from its own streams so concurrent runs never share RNG state, and
// each epoch redraws so a probabilistic rule keeps firing across epochs.
func (s *Scheduler) faultSeedFor(pool, epoch int) int64 {
	return s.cfg.FaultSeed + int64(pool)*1_000_003 + int64(epoch)*7919
}

// usableCapacity scores pool i right now (epoch-local t=0):
// health-weighted effective capacity less the headroom.
func (s *Scheduler) usableCapacity(i int) float64 {
	return s.pools[i].EffectiveCapacity(0, s.nominal) * (1 - headroom)
}

// placeEpoch runs the serial placement/rebalance pass for epoch e given
// the previous epoch's placement (each stream's pool, -1 if unplaced)
// and emits the cluster trace events. The plan's report holds the new
// placement.
func (s *Scheduler) placeEpoch(e int, prev []int) *epochPlan {
	n := s.cfg.Pools
	now := float64(e) * s.cfg.EpochSeconds
	streams := s.streams
	s.scr.reset(n, len(streams))
	caps := s.scr.caps
	clusterCap := 0.0
	for i := range caps {
		caps[i] = s.usableCapacity(i)
		clusterCap += caps[i]
	}

	admitted, throttled := admit(streams, s.order, clusterCap, s.cfg.TenantShare,
		s.scr.admitted, s.scr.throttled, s.scr.perTenant)
	s.scr.admitted, s.scr.throttled = admitted, throttled

	plan := &epochPlan{
		rep: EpochReport{
			Epoch:     e,
			Capacity:  append([]float64(nil), caps...), // retained in Reports; caps is scratch
			Assigned:  make([]float64, n),
			Placed:    unplaced(len(streams)),
			Throttled: append([]int(nil), throttled...),
		},
		byPool:   s.scr.byPool,
		blackout: s.scr.blackout,
	}
	rep := &plan.rep
	placed := rep.Placed

	// Sticky pass: a stream stays on its pool while the pool is neither
	// quorum-degraded nor over-committed against its rescored capacity.
	// Over-committed pools evict lowest-priority (then largest) streams
	// until they fit; evicted streams re-place worst-fit below.
	pl := &placer{rem: append(s.scr.rem[:0], caps...)}
	keptIdx := s.scr.keptIdx // per pool, in placement order
	load := s.scr.load
	for _, i := range admitted {
		if p := prev[i]; p >= 0 && !s.pools[p].Degraded() && s.pools[p].Responsive(0) > 0 {
			keptIdx[p] = append(keptIdx[p], i)
			load[p] += streams[i].Rate
		}
	}
	for p := 0; p < n; p++ {
		idx := keptIdx[p]
		evictOrder(streams, idx)
		// Walk eviction order, shedding until the pool fits.
		for len(idx) > 0 && load[p] > caps[p] {
			load[p] -= streams[idx[0]].Rate
			idx = idx[1:]
		}
		for _, i := range idx {
			placed[i] = p
			pl.reserve(p, streams[i].Rate)
		}
	}

	// Kept streams first, in placement order, so byPool ordering (and the
	// composed scenarios) is deterministic.
	for _, i := range admitted {
		if p := placed[i]; p >= 0 {
			rep.Assigned[p] += streams[i].Rate
			plan.byPool[p] = append(plan.byPool[p], i)
		}
	}
	// Loose streams (new, evicted, previously shed, or on broken pools)
	// place worst-fit, also in placement order.
	tr := s.trace
	traced := tr.Enabled()
	for _, i := range admitted {
		if placed[i] >= 0 {
			continue // kept
		}
		st := &streams[i]
		pool, ok := pl.place(st.Rate)
		if !ok {
			rep.Unplaced = append(rep.Unplaced, i)
			if traced {
				tr.Emit(now, obs.ClusterCat, "shed",
					obs.S("stream", st.Name), obs.S("cause", metrics.ClusterNoPoolCapacity.String()))
			}
			continue
		}
		placed[i] = pool
		rep.Assigned[pool] += st.Rate
		plan.byPool[pool] = append(plan.byPool[pool], i)
		switch from := prev[i]; {
		case from != pool && from >= 0:
			plan.blackout[i] = true
			rep.Migrated = append(rep.Migrated, Migration{Stream: i, From: from, To: pool})
			if traced {
				tr.Emit(now, obs.ClusterCat, "migrate",
					obs.S("stream", st.Name), obs.I("from", from), obs.I("to", pool))
			}
		case from < 0 && traced:
			tr.Emit(now, obs.ClusterCat, "place",
				obs.S("stream", st.Name), obs.I("pool", pool), obs.F("rate", st.Rate))
		}
	}
	if traced {
		for _, i := range throttled {
			tr.Emit(now, obs.ClusterCat, "shed",
				obs.S("stream", streams[i].Name), obs.S("cause", metrics.ClusterTenantThrottled.String()))
		}
		tr.Emit(now, obs.ClusterCat, "epoch",
			obs.I("epoch", e), obs.F("capacity", clusterCap),
			obs.I("placed", len(admitted)-len(rep.Unplaced)), obs.I("migrated", len(rep.Migrated)),
			obs.I("throttled", len(throttled)), obs.I("unplaced", len(rep.Unplaced)))
	}
	return plan
}

// unplaced returns a placement of n streams with every stream unplaced.
func unplaced(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// dispatch runs every pool's epoch concurrently and returns the per-pool
// results indexed by pool (nil for idle pools). Pools with no placed
// streams still advance their supervision state machines — a crashed
// pool heals on schedule even while it holds no streams.
func (s *Scheduler) dispatch(e int, plan *epochPlan) ([]*edge.Result, error) {
	n := s.cfg.Pools
	results := s.scr.results
	E := s.cfg.EpochSeconds
	// Workers touch only their own pool index in the scratch, so the
	// per-epoch buffers are race-free without locks.
	err := parallel.ForEachErr(n, maxWorkers.Get(), func(i int) error {
		placed := plan.byPool[i]
		if len(placed) == 0 {
			return s.idleEpoch(i, e)
		}
		loads := s.scr.loads[i][:0]
		deadline := s.cfg.Deadline
		for _, j := range placed {
			st := &s.streams[j]
			rate := st.Rate
			if plan.blackout[j] {
				// The migrated stream serves only after its blackout; the
				// blackout frames are accounted analytically as migrating.
				rate *= (E - s.blackout()) / E
			}
			loads = append(loads, edge.Load{Streams: 1, FPS: rate, Deviation: st.Deviation, Interval: st.Interval, Diurnal: st.Diurnal})
			if st.SLO > 0 && (deadline == 0 || st.SLO < deadline) {
				deadline = st.SLO
			}
		}
		s.scr.loads[i] = loads
		scn, err := edge.Compose(fmt.Sprintf("pool%d/epoch%d", i, e), E, loads)
		if err != nil {
			return err
		}
		// Batching is configured on the pools themselves (per-board dispatch
		// queues), not on the epoch runs: the pool owns batch accounting and
		// edge.Run drains it, so setting SimConfig.BatchConfig here would count
		// every frame twice.
		res, err := edge.Run(scn, s.pools[i], edge.SimConfig{
			AdmissionConfig: edge.AdmissionConfig{QueueFrames: s.cfg.QueueFrames, Deadline: deadline},
			Seed:            s.cfg.Seed,
			FaultConfig:     edge.FaultConfig{Plan: s.faultPlanFor(i, e), Seed: s.faultSeedFor(i, e)},
		})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// blackout returns the effective migration blackout, clamped to the
// epoch length.
func (s *Scheduler) blackout() float64 {
	b := migrationBlackout
	if b > s.cfg.EpochSeconds {
		b = s.cfg.EpochSeconds
	}
	return b
}

// idleEpoch advances an unloaded pool's supervision for one epoch: the
// heartbeat cadence matches edge.Run's, drawing board faults from the
// same per-(pool,epoch) seeded streams, so repairs complete and crashed
// boards rejoin even while the pool holds no streams.
func (s *Scheduler) idleEpoch(i, e int) error {
	inj, err := fault.NewInjector(s.faultPlanFor(i, e), s.faultSeedFor(i, e))
	if err != nil {
		return err
	}
	p := s.pools[i]
	for k := 1; ; k++ {
		t := float64(k) * edge.HeartbeatInterval
		if t >= s.cfg.EpochSeconds {
			return nil
		}
		p.Heartbeat(t, inj)
	}
}

// tenantOf looks up (creating) the tenant entry for a spec.
func (r *Result) tenantOf(st *StreamSpec) *TenantStats {
	t := r.Tenants[st.Tenant]
	if t == nil {
		t = &TenantStats{Class: st.Class}
		r.Tenants[st.Tenant] = t
	}
	if st.Class > t.Class {
		t.Class = st.Class
	}
	return t
}

// aggregate folds one epoch's pool results and analytic shed into the
// cluster totals, serially in pool order so accumulation order — and
// thus every floating-point sum — is deterministic.
func (s *Scheduler) aggregate(e int, plan *epochPlan, runs []*edge.Result, res *Result) {
	E := s.cfg.EpochSeconds
	for i, r := range runs {
		if r == nil {
			continue
		}
		res.Arrived += r.Arrived
		res.Processed += r.Processed
		res.Dropped += r.Dropped
		res.Drops.AddPool(r.Drops)
		res.Batch.Merge(r.Batch)
		// Attribute the pool's frames to tenants by placed-rate share.
		total := 0.0
		for _, j := range plan.byPool[i] {
			total += s.streams[j].Rate
		}
		if total <= 0 {
			continue
		}
		for _, j := range plan.byPool[i] {
			st := &s.streams[j]
			share := st.Rate / total
			t := res.tenantOf(st)
			t.Arrived += r.Arrived * share
			t.Processed += r.Processed * share
			t.Dropped += r.Dropped * share
		}
	}
	shed := func(st *StreamSpec, frames float64, cause metrics.ClusterDropCause) {
		res.Arrived += frames
		res.Dropped += frames
		res.Drops.Add(cause, frames)
		t := res.tenantOf(st)
		t.Arrived += frames
		t.Dropped += frames
	}
	for _, m := range plan.rep.Migrated {
		st := &s.streams[m.Stream]
		shed(st, st.Rate*s.blackout(), metrics.ClusterMigrating)
	}
	for _, j := range plan.rep.Throttled {
		st := &s.streams[j]
		shed(st, st.Rate*E, metrics.ClusterTenantThrottled)
	}
	for _, j := range plan.rep.Unplaced {
		st := &s.streams[j]
		shed(st, st.Rate*E, metrics.ClusterNoPoolCapacity)
	}
	res.Migrations += len(plan.rep.Migrated)
	res.Throttled += len(plan.rep.Throttled)
	res.Unplaced += len(plan.rep.Unplaced)
	res.Reports = append(res.Reports, plan.rep)
}

// Run executes the configured number of epochs and returns the cluster
// totals. A Scheduler is single-shot: pools carry their health state
// across epochs within the run, so reuse would not replay.
func (s *Scheduler) Run() (*Result, error) {
	res := &Result{
		Streams: len(s.streams),
		Pools:   s.cfg.Pools,
		Epochs:  s.cfg.Epochs,
		Tenants: make(map[string]*TenantStats),
	}
	for i := range s.streams {
		res.tenantOf(&s.streams[i]).Streams++
	}
	placed := unplaced(len(s.streams))
	for e := 0; e < s.cfg.Epochs; e++ {
		if e > 0 {
			// Epoch clocks restart at zero; shift every board timer so
			// repair, hang, and brownout windows stay continuous.
			for _, p := range s.pools {
				p.Rebase(s.cfg.EpochSeconds)
			}
		}
		plan := s.placeEpoch(e, placed)
		placed = plan.rep.Placed
		runs, err := s.dispatch(e, plan)
		if err != nil {
			return nil, err
		}
		s.aggregate(e, plan, runs, res)
	}
	for _, p := range s.pools {
		ps := p.PoolStats()
		res.Pool.BoardsDied += ps.BoardsDied
		res.Pool.BoardsRecovered += ps.BoardsRecovered
		res.Pool.Failovers += ps.Failovers
		res.Pool.StandbyPromotions += ps.StandbyPromotions
		res.Pool.DegradedEntries += ps.DegradedEntries
	}
	if res.Arrived > 0 {
		res.FrameLossPct = res.Dropped / res.Arrived * 100
	}
	return res, nil
}
