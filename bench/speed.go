package main

import (
	"math"
	"time"
)

// Host times drift by tens of percent between runs on a shared machine:
// neighbours change how fast the same code runs. Every run therefore
// samples a fixed reference kernel throughout, interleaved with its
// operations, and reports host times at the reference speed: each measured
// time is multiplied by refKernel / (the run's median kernel time). A
// change to the program cannot change the kernel, so a change in a
// reported time is a change in the program's cost relative to the machine
// it ran on.
//
// The kernel's time is the geometric mean of two parts: a chain of
// dependent loads through a fixed 4 MiB table (memory latency) and a
// 64×64 float32 matrix product (core arithmetic). On the shared machine,
// neither part alone tracked every workload; together they kept the
// normalized median of each workload within 1.3–3.5 % over 24 runs whose
// raw times spread by 17–29 % (see README.md).

// refKernel is the kernel's time at the reference speed.
const refKernel = 500 * time.Microsecond

// kernelEvery is how often the measured loop samples the kernel.
const kernelEvery = 50 * time.Millisecond

var (
	chaseTable = func() []uint32 {
		t := make([]uint32, 1<<20)
		x := uint32(2463534242)
		for i := range t {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			t[i] = x & (1<<20 - 1)
		}
		return t
	}()
	gemmA, gemmB = func() ([]float32, []float32) {
		a, b := make([]float32, 64*64), make([]float32, 64*64)
		for i := range a {
			a[i] = float32(i%7) * 0.1
			b[i] = float32(i%5) * 0.2
		}
		return a, b
	}()
	gemmC      = make([]float32, 64*64)
	kernelSink float32
)

// kernel runs the reference kernel once and returns its time in seconds.
func kernel() float64 {
	start := time.Now()
	p := uint32(1)
	for i := 0; i < 100_000; i++ {
		p = chaseTable[p]
	}
	mid := time.Now()
	clear(gemmC)
	for r := 0; r < 2; r++ {
		for i := 0; i < 64; i++ {
			out := gemmC[i*64 : i*64+64]
			for k := 0; k < 64; k++ {
				a, row := gemmA[i*64+k], gemmB[k*64:k*64+64]
				for j := range out {
					out[j] += a * row[j]
				}
			}
		}
	}
	end := time.Now()
	kernelSink += float32(p) + gemmC[5]
	return math.Sqrt(mid.Sub(start).Seconds() * end.Sub(mid).Seconds())
}

// speedFactor converts host times of a run to the reference speed, given
// the run's kernel samples: multiply times by it, divide rates by it.
func speedFactor(samples []float64) float64 {
	return refKernel.Seconds() / median(samples)
}
