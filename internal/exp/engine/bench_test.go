package engine

import (
	"fmt"
	"testing"

	"tmcc/internal/sim"
)

// busyExec is a deterministic CPU-bound stand-in for a simulation: enough
// work per job that scheduling overhead is visible as a fraction, seeded by
// the job so the compiler cannot hoist it.
func busyExec(opt sim.Options) (sim.Metrics, error) {
	x := uint64(opt.Seed) + 1
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return sim.Metrics{Cycles: x}, nil
}

// benchRunAll drives a fresh engine per iteration (distinct seeds, so no
// memo hits) through a job list wide enough to expose pool overhead.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	const jobsPerIter = 32
	seed := int64(0)
	for i := 0; i < b.N; i++ {
		e := New(workers)
		e.exec = busyExec
		jobs := make([]sim.Options, jobsPerIter)
		for j := range jobs {
			seed++
			jobs[j] = sim.Options{Benchmark: "bench", Seed: seed}
		}
		if _, err := e.RunAll(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAll compares worker-pool widths on one process. The -j
// regression this guards against: on a host where GOMAXPROCS caps useful
// parallelism, -j 4 must not run slower than -j 1 — SetWorkers clamps the
// pool to GOMAXPROCS and both widths run the same pooled path, so the j4
// number here must be <= the j1 number (equal on a single-core host).
func BenchmarkRunAll(b *testing.B) {
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			benchRunAll(b, j)
		})
	}
}

// BenchmarkRunMemoHit measures the dedup fast path: after the first call
// every Run is a memo hit, which must stay allocation-free on an
// unobserved engine.
func BenchmarkRunMemoHit(b *testing.B) {
	e := New(1)
	e.exec = busyExec
	opt := sim.Options{Benchmark: "hot", Seed: 1}
	if _, err := e.Run(opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}
