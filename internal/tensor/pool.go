package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Parallel execution machinery shared by the blocked GEMM and im2col/col2im
// kernels. A package-level pool of worker goroutines (sized by
// runtime.NumCPU, capped per call by SetMaxWorkers) executes contiguous
// index-range chunks. Work below a tunable size threshold runs serially so
// tiny matrices never pay goroutine handoff overhead.
//
// Determinism: kernels only parallelize over output ranges that are written
// by exactly one chunk, and every chunk accumulates in the same order as
// the serial loop. Results are therefore bit-identical to the serial path
// regardless of worker count or scheduling.

const defaultParallelGrain = 64 * 1024 // scalar ops per chunk, roughly µs-scale

var (
	poolOnce  sync.Once
	poolTasks chan func()

	// maxWorkers lives in the parallel knob registry so
	// adaflow.SetParallelism / parallel.SetAll can drive it together with
	// the repo's other fan-out caps.
	maxWorkers    = parallel.RegisterKnob("tensor.kernels", runtime.NumCPU())
	parallelGrain atomic.Int64
)

func init() {
	parallelGrain.Store(defaultParallelGrain)
}

// SetMaxWorkers caps how many chunks a single kernel call fans out to and
// returns the previous cap. n <= 0 resets the cap to runtime.NumCPU().
// SetMaxWorkers(1) forces every kernel onto the serial path. Safe to call
// concurrently with running kernels; in-flight calls keep their cap.
func SetMaxWorkers(n int) int { return maxWorkers.Set(n) }

// SetParallelGrain sets the minimum number of scalar operations a kernel
// call must involve per chunk before it fans out, returning the previous
// threshold. ops <= 0 resets the default. Lowering it (e.g. to 1 in tests)
// forces even tiny kernels through the parallel path.
func SetParallelGrain(ops int) int {
	if ops <= 0 {
		ops = defaultParallelGrain
	}
	return int(parallelGrain.Swap(int64(ops)))
}

// ensurePool starts the worker goroutines on first use. The pool holds
// NumCPU workers for the life of the process; SetMaxWorkers only limits how
// many chunks each kernel call submits, so shrinking the cap needs no
// worker teardown.
func ensurePool() chan func() {
	poolOnce.Do(func() {
		poolTasks = make(chan func())
		n := runtime.NumCPU()
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			go func() {
				for f := range poolTasks {
					f()
				}
			}()
		}
	})
	return poolTasks
}

// ParallelFor is parallelFor for the per-sample passes around the kernels
// (internal/nn's level epilogue and pooling): body must write only state
// owned by its index range, so results are the same for any worker count.
func ParallelFor(n, opsPerUnit int, body func(lo, hi int)) { parallelFor(n, opsPerUnit, body) }

// parallelFor runs body over [0, n) split into contiguous chunks.
// opsPerUnit estimates the scalar-op cost of one index unit; when the total
// work divided by the grain threshold yields a single chunk, body runs
// inline. Submission never blocks: if every pool worker is busy (e.g.
// nested use from already-parallel callers), the chunk runs on the calling
// goroutine instead, so the pool cannot deadlock.
func parallelFor(n, opsPerUnit int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := maxWorkers.Get()
	grain := int(parallelGrain.Load())
	chunks := w
	if total := int64(n) * int64(opsPerUnit); total < int64(chunks)*int64(grain) {
		chunks = int(total / int64(grain))
	}
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		body(0, n)
		return
	}
	tasks := ensurePool()
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		lo := i * n / chunks
		hi := (i + 1) * n / chunks
		if i == chunks-1 {
			body(lo, hi) // the caller always does its share
			continue
		}
		wg.Add(1)
		job := func() {
			defer wg.Done()
			body(lo, hi)
		}
		select {
		case tasks <- job:
		default:
			job()
		}
	}
	wg.Wait()
}
