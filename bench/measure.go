package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s and setup_alloc_mb are medians, and the last set-up is the one
// measured.
const setupRepeats = 5

// loop is what one measured loop of operations recorded.
type loop struct {
	durs     [][]float64 // op seconds, per variant
	ops      int
	opSec    float64 // Σ op seconds
	allocB   uint64  // bytes allocated while the loop ran
	failed   int
	firstErr error
	canon    []string  // canonical outputs of the first checkOps operations
	all      opOut     // simulated totals over every operation
	exact    opOut     // simulated totals over the first checkOps operations
	kernel   []float64 // reference kernel samples, seconds
}

// runLoop issues operations back to back, from operation 0, until window
// has passed and at least minOps have run. t, when non-nil, traces every
// operation.
func runLoop(w *workload, r runner, window time.Duration, minOps int, t *tracer) *loop {
	l := &loop{durs: make([][]float64, w.variants)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var lastKernel time.Time
	for i := 0; i < minOps || time.Since(start) < window; i++ {
		if time.Since(lastKernel) >= kernelEvery {
			l.kernel = append(l.kernel, kernel())
			lastKernel = time.Now()
		}
		if t != nil {
			t.beginOp(i)
		}
		t0 := time.Now()
		out, err := r.op(i, t)
		d := time.Since(t0).Seconds()
		if t != nil {
			t.endOp()
			if a, ok := r.(afterOper); ok && err == nil {
				err = a.afterOp(i, t)
			}
		}
		l.ops++
		l.opSec += d
		l.durs[i%w.variants] = append(l.durs[i%w.variants], d)
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
		addOut(&l.all, out)
		if i < w.checkOps {
			addOut(&l.exact, out)
			c := "failed"
			if err == nil {
				c = out.canon()
			}
			l.canon = append(l.canon, c)
		}
	}
	runtime.ReadMemStats(&ms)
	l.allocB = ms.TotalAlloc - alloc0
	if v, ok := r.(verifier); ok {
		failed, err := v.verify()
		l.failed += failed
		if l.firstErr == nil && err != nil {
			l.firstErr = err
		}
	}
	return l
}

func addOut(acc *opOut, o opOut) {
	acc.simSec += o.simSec
	acc.arrived += o.arrived
	acc.processed += o.processed
	acc.dropped += o.dropped
	acc.energyJ += o.energyJ
	acc.qoe += o.qoe
	acc.images += o.images
}

// digest hashes the canonical outputs of the check operations.
func (l *loop) digest() string {
	h := sha256.New()
	for _, c := range l.canon {
		fmt.Fprintln(h, c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// opPercentileMS is the geometric mean, over the workload's variants, of
// each variant's own percentile of op time. Taking percentiles per variant
// keeps the statistic inside one variant's distribution instead of on the
// gap between two; the geometric mean weighs every variant equally.
func (l *loop) opPercentileMS(q float64) float64 {
	logSum := 0.0
	for _, d := range l.durs {
		s := append([]float64(nil), d...)
		sort.Float64s(s)
		logSum += math.Log(percentile(s, q) * 1e3)
	}
	return math.Exp(logSum / float64(len(l.durs)))
}

// minVariantOps is the smallest per-variant sample count.
func (l *loop) minVariantOps() int {
	n := l.ops
	for _, d := range l.durs {
		n = min(n, len(d))
	}
	return n
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupStats records the set-ups of a run.
type setupStats struct {
	seconds []float64
	allocMB []float64
	kernel  []float64 // reference kernel samples taken between set-ups
}

// setUp sets the workload up n times and returns the last runner. A set-up
// includes one untimed warm-up operation of every variant, so caches are
// filled and lazy set-up is done before the measured loop starts.
func setUp(w *workload, seed int64, n int) (runner, *setupStats, error) {
	var r runner
	st := &setupStats{}
	var ms runtime.MemStats
	for k := 0; k < n; k++ {
		st.kernel = append(st.kernel, kernel())
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for i := 0; i < w.variants; i++ {
			if _, err := r.op(i, nil); err != nil {
				return nil, nil, fmt.Errorf("%s warm-up op %d: %w", w.name, i, err)
			}
		}
		st.seconds = append(st.seconds, time.Since(start).Seconds())
		runtime.ReadMemStats(&ms)
		st.allocMB = append(st.allocMB, float64(ms.TotalAlloc-alloc0)/1e6)
	}
	return r, st, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
