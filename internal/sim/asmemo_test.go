package sim

import (
	"fmt"
	"sync"
	"testing"

	"tmcc/internal/mc"
)

// resetASMemo empties the address-space memo, so the next native build is
// cold.
func resetASMemo() {
	lastASMu.Lock()
	lastAS = nil
	lastASMu.Unlock()
}

func buildAndRun(t testing.TB, opt Options) (*Runner, Metrics) {
	t.Helper()
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatalf("NewRunner(%s/%v): %v", opt.Benchmark, opt.Kind, err)
	}
	return r, mustRun(t, r)
}

// TestMemoHitMatchesColdBuild pins that a build served from the
// address-space memo simulates exactly what a cold build does, for a
// compressed design, the uncompressed baseline, and 2MB pages.
func TestMemoHitMatchesColdBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"tmcc", Options{Benchmark: "canneal", Kind: mc.TMCC}},
		{"uncompressed", Options{Benchmark: "canneal", Kind: mc.Uncompressed}},
		{"hugepages", Options{Benchmark: "canneal", Kind: mc.TMCC, HugePages: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.WarmupAccesses, opt.MeasureAccesses, opt.Seed = 20000, 20000, 7
			resetASMemo()
			cold, want := buildAndRun(t, opt)
			hit, got := buildAndRun(t, opt)
			if hit.as != cold.as {
				t.Fatal("second build did not reuse the memoized address space")
			}
			if got != want {
				t.Errorf("memo hit differs from cold build:\n%+v\n%+v", got, want)
			}
		})
	}
}

// TestConcurrentBuildsMatchSerial builds and runs two sets of options on
// several goroutines at once, so the memo is hit, missed and replaced
// concurrently while runners read shared tables; every run must equal a
// cold serial one. The race pass (make race) checks the sharing.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	sets := []Options{
		{Benchmark: "blackscholes", Kind: mc.TMCC},
		{Benchmark: "streamcluster", Kind: mc.Uncompressed},
	}
	want := make([]Metrics, len(sets))
	for i := range sets {
		sets[i].WarmupAccesses, sets[i].MeasureAccesses, sets[i].Seed = 10000, 10000, 3
		resetASMemo()
		_, want[i] = buildAndRun(t, sets[i])
	}
	resetASMemo()
	const perSet = 3
	got := make([]Metrics, len(sets)*perSet)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := NewRunner(sets[g%len(sets)])
			if err == nil {
				got[g], err = r.Run()
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, m := range got {
		opt := sets[g%len(sets)]
		name := fmt.Sprintf("goroutine %d (%s/%v)", g, opt.Benchmark, opt.Kind)
		if errs[g] != nil {
			t.Errorf("%s: %v", name, errs[g])
		} else if m != want[g%len(sets)] {
			t.Errorf("%s differs from a cold serial run:\n%+v\n%+v", name, m, want[g%len(sets)])
		}
	}
}
