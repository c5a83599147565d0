package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmcc/internal/mc"
	"tmcc/internal/pagetable"
)

// resetASMemo empties the address-space memo, so the next native build is
// cold.
func resetASMemo() {
	asMu.Lock()
	lastAS = nil
	asMu.Unlock()
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

// swapBuilder replaces the memo's builder for one test: each build counts
// into builds, then runs hook (nil: none) before the real build.
func swapBuilder(t *testing.T, builds *atomic.Int64, hook func()) {
	t.Helper()
	resetASMemo()
	t.Cleanup(func() {
		buildAddressSpace = pagetable.BuildAddressSpace
		resetASMemo()
	})
	buildAddressSpace = func(dataPages, osPages uint64, cfg pagetable.OSConfig) *pagetable.AddressSpace {
		builds.Add(1)
		if hook != nil {
			hook()
		}
		return pagetable.BuildAddressSpace(dataPages, osPages, cfg)
	}
}

// TestMemoWaitsForBuildInFlight starts two callers on one key while the
// first one's build is held open: the second must wait for that build and
// share it instead of building its own copy.
func TestMemoWaitsForBuildInFlight(t *testing.T) {
	var builds atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	swapBuilder(t, &builds, func() {
		once.Do(func() { close(started) })
		<-release
	})
	cfg := pagetable.DefaultOSConfig(3)
	got := make([]*pagetable.AddressSpace, 2)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		got[i] = nativeAddressSpace(4000, 16000, cfg)
	}
	wg.Add(2)
	go call(0)
	<-started
	go call(1)
	// Give the second caller time to find the build in flight; it shares
	// the build whether it arrives before or after the release.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("two callers on one key built %d address spaces, want 1", n)
	}
	if got[0] == nil || got[0] != got[1] {
		t.Fatalf("callers got %p and %p, want one shared address space", got[0], got[1])
	}
}

// TestMemoPanickedBuildLeavesNoEntry fails a build with a panic while a
// second caller waits on it: the waiter must be released and build the
// key itself. A failed build must leave no entry: the retained build
// stays, and nothing is left in flight.
func TestMemoPanickedBuildLeavesNoEntry(t *testing.T) {
	var builds atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	swapBuilder(t, &builds, func() {
		if builds.Load() == 1 {
			close(started)
			<-release
			panic("sim: injected build failure")
		}
	})
	cfg := pagetable.DefaultOSConfig(3)
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		nativeAddressSpace(4000, 16000, cfg)
	}()
	<-started
	waited := make(chan *pagetable.AddressSpace, 1)
	go func() { waited <- nativeAddressSpace(4000, 16000, cfg) }()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if r := <-recovered; r == nil {
		t.Fatal("the failing build did not panic")
	}
	select {
	case as := <-waited:
		if as == nil {
			t.Fatal("the waiter got no address space")
		}
	case <-time.After(time.Minute):
		t.Fatal("the waiter was not released by the failed build")
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds, want the failed one and the waiter's own", n)
	}

	// Alone, a failed build leaves nothing behind: the waiter's build
	// stays the retained entry.
	buildAddressSpace = func(uint64, uint64, pagetable.OSConfig) *pagetable.AddressSpace {
		panic("sim: injected build failure")
	}
	func() {
		defer func() { _ = recover() }()
		nativeAddressSpace(5000, 20000, cfg)
	}()
	asMu.Lock()
	b, inFlight := lastAS, len(building)
	asMu.Unlock()
	if b == nil || b.key.dataPages != 4000 {
		t.Errorf("a panicked build replaced the memo entry: %+v", b)
	}
	if inFlight != 0 {
		t.Errorf("a panicked build left %d builds in flight", inFlight)
	}
}
