package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sort"

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

// SetMaxWorkers caps how many pool epochs run concurrently and returns
// the previous cap. n <= 0 resets to runtime.NumCPU(); 1 forces the
// serial path. Safe to call concurrently; in-flight runs keep their cap.
func SetMaxWorkers(n int) int { return maxWorkers.Set(n) }

// MaxWorkers returns the current cap.
func MaxWorkers() int { return maxWorkers.Get() }

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
	// Headroom is the fraction of each pool's effective capacity the
	// placer refuses to commit (default 0.1), absorbing workload
	// fluctuation without immediate queue overflow.
	Headroom float64
	// TenantShare, when positive, caps any one tenant at that fraction of
	// the cluster's usable capacity; excess streams are throttled lowest
	// priority first. Zero disables the per-tenant cap (priority-ordered
	// admission against total capacity still applies).
	TenantShare float64
	// MigrationBlackout is the serving gap a migrated stream pays at its
	// new pool, in seconds (default 0.5). Blackout frames drop with the
	// exclusive cause migrating.
	MigrationBlackout float64
	// Seed drives every workload RNG; FaultSeed the fault draws. Equal
	// seeds and configs replay bit-identically.
	Seed int64
	// FaultPlan, when non-nil, injects faults; FaultPools restricts it to
	// those pool indices (nil targets every pool). Rule windows are in
	// cluster time and are rebased into each epoch's local clock.
	FaultPlan  *fault.Plan
	FaultPools []int
	FaultSeed  int64
	// Step, QueueFrames, and Deadline pass through to each pool's
	// edge.Run; Deadline is the default SLO for streams that declare
	// none (a pool serves at the tightest SLO placed on it).
	Step        float64
	QueueFrames float64
	Deadline    float64
	// Batch and BatchFlushSlack enable micro-batched service on every
	// pool (see edge.SimConfig.BatchConfig): they configure the pools'
	// per-board dispatch queues, whose counters each epoch's edge.Run
	// drains into its result. Batch <= 1 keeps the historical
	// single-frame serving bit-identical.
	Batch           int
	BatchFlushSlack float64
	// Manager configures every board's Runtime Manager.
	Manager manager.Config
	// Workers caps concurrent pool runs for this scheduler (0 = the
	// package-level MaxWorkers cap).
	Workers int
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
	case math.IsNaN(c.Headroom) || c.Headroom < 0 || c.Headroom >= 1:
		return fmt.Errorf("cluster: Headroom %v must lie in [0, 1)", c.Headroom)
	case math.IsNaN(c.TenantShare) || c.TenantShare < 0:
		return fmt.Errorf("cluster: TenantShare %v must be non-negative", c.TenantShare)
	case math.IsNaN(c.MigrationBlackout) || c.MigrationBlackout < 0:
		return fmt.Errorf("cluster: MigrationBlackout %v must be a non-negative number of seconds", c.MigrationBlackout)
	case math.IsNaN(c.BatchFlushSlack) || c.BatchFlushSlack < 0:
		return fmt.Errorf("cluster: BatchFlushSlack %v must be non-negative", c.BatchFlushSlack)
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
	if c.Headroom == 0 {
		c.Headroom = 0.1
	}
	if c.MigrationBlackout == 0 {
		c.MigrationBlackout = 0.5
	}
	if c.Manager == (manager.Config{}) {
		c.Manager = manager.DefaultConfig()
	}
}

// Migration records one stream moved between pools at an epoch boundary.
type Migration struct {
	Stream   string
	From, To int
}

// EpochReport is the serial placer's full decision record for one epoch
// — what the property suite asserts invariants against.
type EpochReport struct {
	Epoch int
	// Capacity is each pool's usable capacity at placement time
	// (health-weighted effective capacity less headroom); Assigned is the
	// nominal rate placed on it.
	Capacity []float64
	Assigned []float64
	// Placed maps every served stream to its pool — a stream appears at
	// most once, so no frame is ever double-served.
	Placed map[string]int
	// Migrated lists streams that changed pools this epoch (each pays the
	// migration blackout); Throttled and Unplaced name the streams shed
	// for the whole epoch with causes tenant-throttled / no-pool-capacity.
	Migrated  []Migration
	Throttled []string
	Unplaced  []string
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
	lib     *library.Library
	cfg     Config
	ordered []StreamSpec // placement order
	nameIdx map[string]StreamSpec
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
	caps     []float64
	load     []float64
	rem      []float64 // placer remaining-capacity buffer
	keptIdx  [][]int
	loose    []int
	kept     map[string]int
	byPool   [][]StreamSpec
	blackout map[string]bool
	results  []*edge.Result
	loads    [][]edge.Load
}

// reset sizes the scratch for n pools (first epoch) and clears every
// buffer for reuse.
func (sc *epochScratch) reset(n int) {
	if len(sc.caps) != n {
		sc.caps = make([]float64, n)
		sc.load = make([]float64, n)
		sc.rem = make([]float64, n)
		sc.keptIdx = make([][]int, n)
		sc.byPool = make([][]StreamSpec, n)
		sc.results = make([]*edge.Result, n)
		sc.loads = make([][]edge.Load, n)
		sc.kept = make(map[string]int)
		sc.blackout = make(map[string]bool)
	}
	for i := 0; i < n; i++ {
		sc.load[i] = 0
		sc.keptIdx[i] = sc.keptIdx[i][:0]
		sc.byPool[i] = sc.byPool[i][:0]
		sc.results[i] = nil
	}
	clear(sc.kept)
	clear(sc.blackout)
	sc.loose = sc.loose[:0]
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
	s := &Scheduler{lib: lib, cfg: cfg, ordered: orderStreams(specs)}
	s.nameIdx = make(map[string]StreamSpec, len(s.ordered))
	for _, st := range s.ordered {
		s.nameIdx[st.Name] = st
	}
	for i := 0; i < cfg.Pools; i++ {
		p, err := multiedge.NewSupervisedPool(lib, multiedge.Config{
			Boards: cfg.BoardsPerPool, Standby: cfg.Standby, Manager: cfg.Manager,
			Batch: cfg.Batch, BatchFlushSlack: cfg.BatchFlushSlack,
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
	// byPool holds each pool's placed streams; blackout flags the streams
	// paying the migration gap this epoch.
	byPool   [][]StreamSpec
	blackout map[string]bool
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
// health-weighted effective capacity less the configured headroom.
func (s *Scheduler) usableCapacity(i int) float64 {
	return s.pools[i].EffectiveCapacity(0, s.nominal) * (1 - s.cfg.Headroom)
}

// placeEpoch runs the serial placement/rebalance pass for epoch e given
// the previous epoch's assignment, emits the cluster trace events, and
// updates assigned in place to the new placement.
func (s *Scheduler) placeEpoch(e int, assigned map[string]int) *epochPlan {
	n := s.cfg.Pools
	now := float64(e) * s.cfg.EpochSeconds
	s.scr.reset(n)
	caps := s.scr.caps
	clusterCap := 0.0
	for i := range caps {
		caps[i] = s.usableCapacity(i)
		clusterCap += caps[i]
	}

	admitted, throttled := admit(s.ordered, clusterCap, s.cfg.TenantShare)

	// Sticky pass: a stream stays on its pool while the pool is neither
	// quorum-degraded nor over-committed against its rescored capacity.
	// Over-committed pools evict lowest-priority (then largest) streams
	// until they fit; evicted streams re-place worst-fit below.
	pl := &placer{rem: append(s.scr.rem[:0], caps...)}
	kept := s.scr.kept
	keptIdx := s.scr.keptIdx // per pool, indices into admitted
	load := s.scr.load
	loose := s.scr.loose // admitted indices needing placement
	for idx, st := range admitted {
		p, was := assigned[st.Name]
		if was && !s.pools[p].Degraded() && s.pools[p].Responsive(0) > 0 {
			keptIdx[p] = append(keptIdx[p], idx)
			load[p] += st.Rate
			continue
		}
		loose = append(loose, idx)
	}
	for p := 0; p < n; p++ {
		idx := keptIdx[p]
		evictOrder(admitted, idx)
		// Walk eviction order, shedding until the pool fits.
		for len(idx) > 0 && load[p] > caps[p] {
			victim := idx[0]
			idx = idx[1:]
			load[p] -= admitted[victim].Rate
			loose = append(loose, victim)
		}
		for _, i := range idx {
			kept[admitted[i].Name] = p
			pl.reserve(p, admitted[i].Rate)
		}
	}
	// Loose streams (new, evicted, previously shed, or on broken pools)
	// place worst-fit in deterministic placement order.
	sort.Ints(loose)
	s.scr.loose = loose

	rep := EpochReport{
		Epoch:    e,
		Capacity: append([]float64(nil), caps...), // retained in Reports; caps is scratch
		Assigned: make([]float64, n),
		Placed:   make(map[string]int, len(admitted)),
	}
	plan := &epochPlan{rep: rep, byPool: s.scr.byPool, blackout: s.scr.blackout}
	tr := s.trace
	traced := tr.Enabled()

	placeOne := func(st StreamSpec, pool int, migrated bool, from int) {
		plan.rep.Placed[st.Name] = pool
		plan.rep.Assigned[pool] += st.Rate
		plan.byPool[pool] = append(plan.byPool[pool], st)
		if migrated {
			plan.blackout[st.Name] = true
			plan.rep.Migrated = append(plan.rep.Migrated, Migration{Stream: st.Name, From: from, To: pool})
			if traced {
				tr.Emit(now, obs.ClusterCat, "migrate",
					obs.S("stream", st.Name), obs.I("from", from), obs.I("to", pool))
			}
		} else if _, ok := assigned[st.Name]; !ok && traced {
			tr.Emit(now, obs.ClusterCat, "place",
				obs.S("stream", st.Name), obs.I("pool", pool), obs.F("rate", st.Rate))
		}
	}

	// Kept streams first, in placement order, so byPool ordering (and the
	// composed scenarios) is deterministic.
	for _, st := range admitted {
		if p, ok := kept[st.Name]; ok {
			placeOne(st, p, false, 0)
		}
	}
	for _, i := range loose {
		st := admitted[i]
		pool, ok := pl.place(st.Rate)
		if !ok {
			plan.rep.Unplaced = append(plan.rep.Unplaced, st.Name)
			if traced {
				tr.Emit(now, obs.ClusterCat, "shed",
					obs.S("stream", st.Name), obs.S("cause", metrics.ClusterNoPoolCapacity.String()))
			}
			continue
		}
		from, was := assigned[st.Name]
		placeOne(st, pool, was && from != pool, from)
	}
	for _, st := range throttled {
		plan.rep.Throttled = append(plan.rep.Throttled, st.Name)
		if traced {
			tr.Emit(now, obs.ClusterCat, "shed",
				obs.S("stream", st.Name), obs.S("cause", metrics.ClusterTenantThrottled.String()))
		}
	}

	// The new placement replaces the old one; shed streams hold no slot.
	for k := range assigned {
		delete(assigned, k)
	}
	for name, p := range plan.rep.Placed {
		assigned[name] = p
	}
	if traced {
		tr.Emit(now, obs.ClusterCat, "epoch",
			obs.I("epoch", e), obs.F("capacity", clusterCap),
			obs.I("placed", len(plan.rep.Placed)), obs.I("migrated", len(plan.rep.Migrated)),
			obs.I("throttled", len(plan.rep.Throttled)), obs.I("unplaced", len(plan.rep.Unplaced)))
	}
	return plan
}

// dispatch runs every pool's epoch concurrently and returns the per-pool
// results indexed by pool (nil for idle pools). Pools with no placed
// streams still advance their supervision state machines — a crashed
// pool heals on schedule even while it holds no streams.
func (s *Scheduler) dispatch(e int, plan *epochPlan) ([]*edge.Result, error) {
	n := s.cfg.Pools
	results := s.scr.results
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = MaxWorkers()
	}
	E := s.cfg.EpochSeconds
	// Workers touch only their own pool index in the scratch, so the
	// per-epoch buffers are race-free without locks.
	err := parallel.ForEachErr(n, workers, func(i int) error {
		streams := plan.byPool[i]
		if len(streams) == 0 {
			return s.idleEpoch(i, e)
		}
		loads := s.scr.loads[i][:0]
		deadline := s.cfg.Deadline
		for _, st := range streams {
			rate := st.Rate
			if plan.blackout[st.Name] {
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
			Step:            s.cfg.Step,
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
	b := s.cfg.MigrationBlackout
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
	every := p.HeartbeatInterval()
	for k := 1; ; k++ {
		t := float64(k) * every
		if t >= s.cfg.EpochSeconds {
			return nil
		}
		p.Heartbeat(t, inj)
	}
}

// tenantOf looks up (creating) the tenant entry for a spec.
func (r *Result) tenantOf(st StreamSpec) *TenantStats {
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
	byName := s.nameIdx
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
		for _, st := range plan.byPool[i] {
			total += st.Rate
		}
		if total <= 0 {
			continue
		}
		for _, st := range plan.byPool[i] {
			share := st.Rate / total
			t := res.tenantOf(st)
			t.Arrived += r.Arrived * share
			t.Processed += r.Processed * share
			t.Dropped += r.Dropped * share
		}
	}
	shed := func(st StreamSpec, frames float64, cause metrics.ClusterDropCause) {
		res.Arrived += frames
		res.Dropped += frames
		res.Drops.Add(cause, frames)
		t := res.tenantOf(st)
		t.Arrived += frames
		t.Dropped += frames
	}
	for _, m := range plan.rep.Migrated {
		st := byName[m.Stream]
		shed(st, st.Rate*s.blackout(), metrics.ClusterMigrating)
	}
	for _, name := range plan.rep.Throttled {
		shed(byName[name], byName[name].Rate*E, metrics.ClusterTenantThrottled)
	}
	for _, name := range plan.rep.Unplaced {
		shed(byName[name], byName[name].Rate*E, metrics.ClusterNoPoolCapacity)
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
		Streams: len(s.ordered),
		Pools:   s.cfg.Pools,
		Epochs:  s.cfg.Epochs,
		Tenants: make(map[string]*TenantStats),
	}
	for _, st := range s.ordered {
		res.tenantOf(st).Streams++
	}
	assigned := make(map[string]int, len(s.ordered))
	for e := 0; e < s.cfg.Epochs; e++ {
		if e > 0 {
			// Epoch clocks restart at zero; shift every board timer so
			// repair, hang, and brownout windows stay continuous.
			for _, p := range s.pools {
				p.Rebase(s.cfg.EpochSeconds)
			}
		}
		plan := s.placeEpoch(e, assigned)
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
