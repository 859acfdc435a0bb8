package cluster

import (
	"cmp"
	"slices"
	"strings"
)

// Placement policy. All functions here are pure or operate on plain
// slices, run only from the scheduler's serial control loop, and order
// every decision deterministically — this is what makes a cluster run
// seed-replayable bit-identically at any worker count.

// orderStreams returns the placement order of a stream set as indices
// into it: higher priority first, then higher rate (big streams place
// first so worst-fit packs them where fragmentation hurts least), then
// name for a total deterministic order.
func orderStreams(streams []StreamSpec) []int {
	order := make([]int, len(streams))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		a, b := &streams[x], &streams[y]
		if c := cmp.Compare(b.Class, a.Class); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Rate, a.Rate); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return order
}

// evictOrder sorts the streams kept on an over-committed pool into
// eviction order: lowest priority first, and within a class the largest
// rate first so the fewest streams migrate. idx must arrive in placement
// order, which within a class runs by rate descending, then name, so a
// sort stable on class alone yields (class, placement position).
func evictOrder(streams []StreamSpec, idx []int) {
	slices.SortStableFunc(idx, func(x, y int) int {
		return cmp.Compare(streams[x].Class, streams[y].Class)
	})
}

// admit applies cluster-level tenant/priority admission control, walking
// the streams in placement order: streams are admitted highest-priority
// first while the cluster's aggregate usable capacity lasts and, when a
// per-tenant share cap is set, while the stream's tenant stays within
// its share. Rejected streams are throttled for the epoch — their frames
// drop with the exclusive cause tenant-throttled. Because the walk is in
// priority order, pressure always sheds the lowest classes first. The
// indices of admitted and throttled streams are appended, in placement
// order, to admitted and throttled, and perTenant (cleared first) tallies
// the tenants' admitted rates, so the caller's buffers serve every epoch.
func admit(streams []StreamSpec, order []int, clusterCap, tenantShare float64,
	admitted, throttled []int, perTenant map[string]float64) ([]int, []int) {
	clear(perTenant)
	total := 0.0
	limit := clusterCap
	tenantLimit := 0.0
	if tenantShare > 0 {
		tenantLimit = tenantShare * clusterCap
	}
	for _, i := range order {
		s := &streams[i]
		if total+s.Rate > limit {
			throttled = append(throttled, i)
			continue
		}
		if tenantLimit > 0 && perTenant[s.Tenant]+s.Rate > tenantLimit {
			throttled = append(throttled, i)
			continue
		}
		total += s.Rate
		perTenant[s.Tenant] += s.Rate
		admitted = append(admitted, i)
	}
	return admitted, throttled
}

// placer assigns streams to pools worst-fit: each stream goes to the
// pool with the most remaining usable capacity, so load spreads evenly
// and the headroom that absorbs workload fluctuation stays balanced.
// Capacities are the health-weighted effective capacities the scheduler
// scored the pools with (dead, hung, and mid-reconfiguration boards
// contribute nothing; browned-out boards are derated).
type placer struct {
	rem []float64
}

// reserve pins an already-placed (sticky) stream to its pool.
func (p *placer) reserve(pool int, rate float64) { p.rem[pool] -= rate }

// place assigns one stream worst-fit. It fails — the stream stays
// unplaced this epoch, cause no-pool-capacity — only when no pool's
// remaining capacity covers the stream's rate; ties break toward the
// lowest pool index.
func (p *placer) place(rate float64) (pool int, ok bool) {
	best, bestRem := -1, 0.0
	for i, r := range p.rem {
		if r >= rate && (best == -1 || r > bestRem) {
			best, bestRem = i, r
		}
	}
	if best == -1 {
		return -1, false
	}
	p.rem[best] -= rate
	return best, true
}
