package sim

import (
	"testing"

	"tmcc/internal/check"
	"tmcc/internal/mc"
)

// benchKinds covers every memory-controller design the access path serves.
var benchKinds = []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC}

// newBenchRunner builds a runner on the CI-sized canneal trace and warms it
// past placement transients so the timed window exercises the steady-state
// access path (TLB/cache hits and misses, walks, ML2 traffic).
func newBenchRunner(tb testing.TB, kind mc.Kind) *Runner {
	tb.Helper()
	r, err := NewRunner(Options{
		Benchmark:       "canneal",
		Kind:            kind,
		WarmupAccesses:  30000,
		MeasureAccesses: 30000,
		Seed:            42,
	})
	if err != nil {
		tb.Fatalf("NewRunner(canneal,%v): %v", kind, err)
	}
	r.Steps(30000)
	return r
}

// BenchmarkAccessPath times the batched simulation core per design:
// ns/op is nanoseconds per simulated access, the repo's headline raw
// -simulation speed number (bench/README.md has the repo benchmark).
func BenchmarkAccessPath(b *testing.B) {
	for _, kind := range benchKinds {
		b.Run(kind.String(), func(b *testing.B) {
			r := newBenchRunner(b, kind)
			r.recording = true
			b.ReportAllocs()
			b.ResetTimer()
			r.Steps(b.N)
			if err := r.mcc.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkNewRunner times system construction on canneal/TMCC: cold
// rebuilds the address space on every build, memo-hit reuses the last
// one. Both share the process-wide size model, warmed before timing.
func BenchmarkNewRunner(b *testing.B) {
	opt := Options{Benchmark: "canneal", Kind: mc.TMCC, WarmupAccesses: 1000, MeasureAccesses: 1000, Seed: 42}
	for _, tc := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"memo-hit", false}} {
		b.Run(tc.name, func(b *testing.B) {
			if _, err := NewRunner(opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.cold {
					resetASMemo()
				}
				if _, err := NewRunner(opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMeasuredLoopAllocationFree pins the arena invariant: after warmup the
// measured loop allocates nothing — batches, walk buffers, prefetch
// candidates, eviction scratch, and recycled ML2 supers all come from
// per-runner storage.
func TestMeasuredLoopAllocationFree(t *testing.T) {
	if check.Enabled {
		t.Skip("tmccdebug invariant audits allocate; the arena invariant is a release-build property")
	}
	for _, kind := range benchKinds {
		r := newBenchRunner(t, kind)
		r.recording = true
		r.Steps(30000) // settle ML2 super recycling before measuring
		if allocs := testing.AllocsPerRun(5, func() { r.Steps(5000) }); allocs != 0 {
			t.Errorf("%v: measured loop allocated %.1f objects per 5000 accesses, want 0", kind, allocs)
		}
		if err := r.mcc.Err(); err != nil {
			t.Fatalf("%v: capacity error during alloc probe: %v", kind, err)
		}
	}
}

// TestCapacityErrorStopsWithinOneBatch pins the batch-paced error check:
// hoisting mcc.Err() out of the per-access loop must not let a mid-run
// capacity exhaustion keep simulating indefinitely — the loop stops within
// one batch of the error becoming sticky.
func TestCapacityErrorStopsWithinOneBatch(t *testing.T) {
	r := newBenchRunner(t, mc.TMCC)

	// Exhaust the controller the way a pathological run would: keep
	// placing never-seen pages until the pressure ladder gives up.
	osPages := r.spec.FootprintPages * 4
	for ppn := uint64(0); r.mcc.Err() == nil; ppn++ {
		if ppn >= osPages {
			t.Fatal("could not exhaust capacity within the OS pool")
		}
		r.mcc.Place(ppn, false)
	}

	r.recording = true
	before := r.m.MemAccesses
	r.Steps(64 * batchSize)
	if ran := r.m.MemAccesses - before; ran > batchSize {
		t.Errorf("loop ran %d accesses after capacity exhaustion, want <= one batch (%d)", ran, batchSize)
	}
}
