package main

import "time"

// The reference clock. On the shared host the benchmark was set up on, the
// speed of every core drifts by up to 17% over minutes, and the simulator
// slows with it. A fixed loop of dependent integer operations, timed
// between the workload's own samples, slows by the same share, so the
// end-to-end times are scaled to the host speed at which the loop takes
// clockNominalNS per iteration. bench/README.md has the measurements.
const (
	clockIters     = 1 << 20 // iterations per clock sample, about 2 ms
	clockNominalNS = 2.0     // ns per iteration the times are scaled to
)

var clockSink uint64

//go:noinline
func clockLoop(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	return x
}

// tick takes one reference-clock sample: the loop's ns per iteration now.
func (p *pass) tick() {
	start := time.Now()
	clockSink += clockLoop(clockIters)
	p.clock = append(p.clock, float64(time.Since(start).Nanoseconds())/clockIters)
}

// clockScale turns host time into time at the reference clock: the
// nominal ns per iteration over the fastest decile of the samples.
func clockScale(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return clockNominalNS / nearestRank(samples, 0.1)
}
