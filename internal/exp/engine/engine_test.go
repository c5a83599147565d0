package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/sim"
)

// countingExec returns an exec stub that counts invocations per benchmark
// and fabricates distinguishable Metrics.
func countingExec(calls *int64) func(sim.Options) (sim.Metrics, error) {
	return func(opt sim.Options) (sim.Metrics, error) {
		atomic.AddInt64(calls, 1)
		if opt.Benchmark == "boom" {
			return sim.Metrics{}, errors.New("engine_test: synthetic failure")
		}
		return sim.Metrics{Stores: uint64(len(opt.Benchmark)), Cycles: uint64(opt.Seed) + 1}, nil
	}
}

func TestKeyOfCanonicalizesCTEOverride(t *testing.T) {
	a := config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 4 * config.KiB, Assoc: 8}
	b := a // distinct pointer, same value
	k1 := KeyOf(sim.Options{Benchmark: "x", CTEOverride: &a})
	k2 := KeyOf(sim.Options{Benchmark: "x", CTEOverride: &b})
	if k1 != k2 {
		t.Errorf("same CTE value through different pointers produced different keys")
	}
	k3 := KeyOf(sim.Options{Benchmark: "x"})
	if k1 == k3 {
		t.Errorf("override vs no override collided")
	}
	if k1.Opt.CTEOverride != nil {
		t.Errorf("key retains a pointer field")
	}
}

func TestMemoizationExecutesOnce(t *testing.T) {
	var calls int64
	e := New(4)
	e.exec = countingExec(&calls)
	opt := sim.Options{Benchmark: "canneal", Kind: mc.TMCC, Seed: 7}
	for i := 0; i < 5; i++ {
		m, err := e.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if m.Stores != uint64(len("canneal")) {
			t.Fatalf("wrong metrics: %+v", m)
		}
	}
	if calls != 1 {
		t.Errorf("executed %d times, want 1", calls)
	}
	st := e.Stats()
	if st.Runs != 1 || st.Hits+st.Coalesced != 4 {
		t.Errorf("stats = %+v, want 1 run and 4 deduped", st)
	}
}

func TestErrorsAreMemoizedToo(t *testing.T) {
	var calls int64
	e := New(2)
	e.exec = countingExec(&calls)
	opt := sim.Options{Benchmark: "boom"}
	for i := 0; i < 3; i++ {
		if _, err := e.Run(opt); err == nil {
			t.Fatal("expected error")
		}
	}
	if calls != 1 {
		t.Errorf("failing run executed %d times, want 1 (negative caching)", calls)
	}
}

func TestRunAllCollectsByIndexAndDedups(t *testing.T) {
	var calls int64
	e := New(8)
	e.exec = countingExec(&calls)
	benches := []string{"a", "bb", "ccc", "bb", "a", "dddd"}
	jobs := make([]sim.Options, len(benches))
	for i, b := range benches {
		jobs[i] = sim.Options{Benchmark: b, Seed: 3}
	}
	ms, err := e.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range benches {
		if ms[i].Stores != uint64(len(b)) {
			t.Errorf("slot %d: got Stores=%d want %d", i, ms[i].Stores, len(b))
		}
	}
	if calls != 4 {
		t.Errorf("executed %d sims for 4 unique jobs", calls)
	}
}

func TestRunAllPropagatesFirstErrorByIndex(t *testing.T) {
	var calls int64
	e := New(4)
	e.exec = countingExec(&calls)
	jobs := []sim.Options{
		{Benchmark: "fine"},
		{Benchmark: "boom"},
		{Benchmark: "also-fine"},
	}
	if _, err := e.RunAll(jobs); err == nil {
		t.Fatal("error did not propagate")
	}
}

func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	var calls int64
	release := make(chan struct{})
	e := New(8)
	e.exec = func(opt sim.Options) (sim.Metrics, error) {
		atomic.AddInt64(&calls, 1)
		<-release // hold the first run in flight while duplicates arrive
		return sim.Metrics{Stores: 1}, nil
	}
	opt := sim.Options{Benchmark: "shared"}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(opt); err != nil {
				t.Error(err)
			}
		}()
	}
	for e.Stats().Coalesced+e.Stats().Hits+e.Stats().Runs == 0 {
		// Wait until the first goroutine registered its in-flight call.
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("coalescing failed: %d executions", calls)
	}
	st := e.Stats()
	if st.Runs != 1 || st.Hits+st.Coalesced != 5 {
		t.Errorf("stats = %+v, want 1 run and 5 deduped", st)
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int64
	e := New(workers)
	e.exec = func(opt sim.Options) (sim.Metrics, error) {
		n := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		atomic.AddInt64(&inFlight, -1)
		return sim.Metrics{}, nil
	}
	jobs := make([]sim.Options, 32)
	for i := range jobs {
		jobs[i] = sim.Options{Benchmark: "b", Seed: int64(i)} // all unique
	}
	if _, err := e.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Errorf("peak concurrency %d exceeds pool of %d", p, workers)
	}
}

func TestClockAccountsRunTime(t *testing.T) {
	var fake int64
	e := New(1)
	e.exec = func(sim.Options) (sim.Metrics, error) {
		fake += 250
		return sim.Metrics{}, nil
	}
	e.SetClock(func() int64 { return fake })
	e.Run(sim.Options{Benchmark: "a"})
	e.Run(sim.Options{Benchmark: "b"})
	e.Run(sim.Options{Benchmark: "a"}) // memo hit: no extra time
	if st := e.Stats(); st.RunNanos != 500 {
		t.Errorf("RunNanos = %d, want 500", st.RunNanos)
	}
}

func TestProgressHookSeesEveryExecution(t *testing.T) {
	e := New(2)
	var calls int64
	e.exec = countingExec(&calls)
	var mu sync.Mutex
	var seen []uint64
	e.SetProgress(func(r Run) {
		mu.Lock()
		seen = append(seen, r.Seq)
		mu.Unlock()
	})
	jobs := []sim.Options{{Benchmark: "a"}, {Benchmark: "b"}, {Benchmark: "a"}}
	if _, err := e.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("progress fired %d times for 2 executions", len(seen))
	}
}

func TestMapPreservesSlotOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(workers)
		out := make([]int, 64)
		e.Map(len(out), func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("%d workers: slot %d = %d", workers, i, v)
			}
		}
	}
}

// TestPanicRecoveredOnceAndTyped: a panicking run executes exactly once,
// is counted once in Panics and Failed (and the matching engine.*
// counters), and fails only its own key.
func TestPanicRecoveredOnceAndTyped(t *testing.T) {
	var calls int64
	e := New(2)
	ob := &obs.Observer{Reg: obs.NewRegistry()}
	e.SetHooks(Hooks{Obs: ob})
	e.exec = func(opt sim.Options) (sim.Metrics, error) {
		atomic.AddInt64(&calls, 1)
		panic("engine_test: induced crash")
	}
	bad := sim.Options{Benchmark: "crasher", Kind: mc.TMCC, Seed: 9}
	_, err := e.Run(bad)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if pe.Key != KeyOf(bad) {
		t.Errorf("PanicError carries key %+v, want the run's own key", pe.Key)
	}
	if pe.Value != "engine_test: induced crash" || len(pe.Stack) == 0 {
		t.Errorf("PanicError lost the panic value or stack: %+v", pe)
	}
	if calls != 1 {
		t.Errorf("panicking run executed %d times, want exactly 1", calls)
	}
	if st := e.Stats(); st.Panics != 1 || st.Failed != 1 || st.Runs != 1 {
		t.Errorf("stats = %+v, want Panics:1 Failed:1 Runs:1", st)
	}
	snap := ob.Reg.Snapshot()
	for _, path := range []string{"engine.panics", "engine.failed"} {
		if s, ok := snap.Get(path); !ok || s.Value != 1 {
			t.Errorf("%s = %+v, want 1", path, s)
		}
	}
	// A repeat is served from the memo, still failing, without executing.
	if _, err := e.Run(bad); !errors.As(err, &pe) || calls != 1 {
		t.Errorf("repeat of a panicked key: err %v after %d calls, want the memoized PanicError after 1", err, calls)
	}
	// The crash fails only its own key: the suite around it completes.
	e.exec = countingExec(&calls)
	if _, err := e.Run(sim.Options{Benchmark: "fine"}); err != nil {
		t.Errorf("healthy run after a crash failed: %v", err)
	}
	if st := e.Stats(); st.Panics != 1 || st.Failed != 1 {
		t.Errorf("stats after a healthy run = %+v, want Panics:1 Failed:1", st)
	}
}

func TestFaultPlanCountersAccumulateDeterministically(t *testing.T) {
	plan := fault.Plan{Seed: 17, CTECorrupt: 0.05, Payload: 0.02}
	jobs := []sim.Options{
		{Benchmark: "canneal", Kind: mc.TMCC, WarmupAccesses: 3000, MeasureAccesses: 3000, Seed: 7},
		{Benchmark: "canneal", Kind: mc.Compresso, WarmupAccesses: 3000, MeasureAccesses: 3000, Seed: 7},
	}
	total := func(workers int) fault.Counters {
		e := New(workers)
		e.SetHooks(Hooks{Faults: plan})
		if _, err := e.RunAll(jobs); err != nil {
			t.Fatal(err)
		}
		return e.FaultCounters()
	}
	serial, wide := total(1), total(4)
	if serial != wide {
		t.Errorf("fault totals depend on worker count:\n1 worker:  %v\n4 workers: %v", serial, wide)
	}
	if serial.Total() == 0 {
		t.Error("armed plan fired no faults across two runs")
	}
}

// TestInfeasibleCountedApart pins that a run failing with
// mc.ErrCapacityExhausted counts in Failed and in Infeasible, and any
// other error in Failed only.
func TestInfeasibleCountedApart(t *testing.T) {
	e := New(1)
	e.exec = func(opt sim.Options) (sim.Metrics, error) {
		if opt.Benchmark == "tight" {
			return sim.Metrics{}, fmt.Errorf("placement: %w", mc.ErrCapacityExhausted)
		}
		return sim.Metrics{}, errors.New("broken")
	}
	e.Run(sim.Options{Benchmark: "tight"})
	e.Run(sim.Options{Benchmark: "broken"})
	e.Run(sim.Options{Benchmark: "tight"}) // memo hit: counted once
	if st := e.Stats(); st.Failed != 2 || st.Infeasible != 1 {
		t.Errorf("Failed=%d Infeasible=%d, want 2 and 1", st.Failed, st.Infeasible)
	}
}
