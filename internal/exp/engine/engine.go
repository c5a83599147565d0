// Package engine schedules the experiment harness's simulator runs. The
// evaluation experiments (package exp) are embarrassingly parallel — every
// simulation is deterministic, seeded, and shares no state with its peers —
// and several figures re-simulate the same (benchmark, design, windows,
// seed) points. The engine exploits both properties:
//
//   - a bounded worker pool (default runtime.GOMAXPROCS) executes
//     independent sim.NewRunner(...).Run() jobs concurrently;
//   - a memoizing singleflight layer keyed on the canonicalized Options
//     tuple computes each distinct simulation exactly once per process,
//     coalescing concurrent duplicate requests onto the in-flight run;
//   - results are collected by submission index (RunAll), so experiment
//     tables are byte-identical to a serial run regardless of scheduling.
//
// Per-run wall-clock accounting is injected (SetClock) because simulator
// code under internal/ must not read the host clock (tmcclint
// determinism-wallclock); cmd/tmccsim supplies time.Now.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"tmcc/internal/config"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/ras"
	"tmcc/internal/sim"
)

// Key is the canonical identity of one simulation: the full Options tuple
// with the CTEOverride pointer replaced by its pointed-to value, so two
// Options that request the same CTE geometry through different pointers
// memoize to the same entry.
type Key struct {
	Opt    sim.Options // CTEOverride cleared; its value lives in CTE/HasCTE
	CTE    config.CTECacheCfg
	HasCTE bool
}

// KeyOf canonicalizes opt into its memoization key.
func KeyOf(opt sim.Options) Key {
	k := Key{Opt: opt}
	if opt.CTEOverride != nil {
		k.CTE, k.HasCTE = *opt.CTEOverride, true
		k.Opt.CTEOverride = nil
	}
	return k
}

// Stats counts what the engine did. Deduped work is Hits+Coalesced; the
// acceptance bar for the harness is that every duplicate (benchmark,
// design, windows, seed) simulation lands there, never in Runs.
type Stats struct {
	Runs      uint64 // simulations actually executed
	Hits      uint64 // requests served from a completed memo entry
	Coalesced uint64 // duplicate requests that waited on an in-flight run
	RunNanos  int64  // wall time summed over executed runs (0 without a clock)
	Panics    uint64 // worker panics recovered into PanicErrors
	Failed    uint64 // runs that ended with an error, panics included
	// Infeasible counts the Failed runs whose error wraps
	// mc.ErrCapacityExhausted: a budget too small for the run, which the
	// Table IV budget search probes on purpose.
	Infeasible uint64
}

// PanicError is a worker panic recovered into a typed per-run error: the
// canonicalized options key identifies which simulation blew up, and the
// captured stack preserves the forensics a crashing process would have
// printed. It fails only its own key — the rest of the suite completes.
type PanicError struct {
	Key   Key
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: run %s/%s panicked: %v",
		p.Key.Opt.Benchmark, p.Key.Opt.Kind, p.Value)
}

// Run describes one executed simulation, delivered to the progress hook.
type Run struct {
	Seq   uint64 // 1-based execution count at completion
	Opt   sim.Options
	Nanos int64 // wall time of this run (0 without a clock)
	Err   error
}

type call struct {
	done  chan struct{}
	m     sim.Metrics
	err   error
	nanos int64
}

// Engine is a bounded, memoizing scheduler for simulator runs. The zero
// value is not usable; call New. All methods are safe for concurrent use,
// except SetWorkers/SetClock/SetProgress/SetHooks, which must be called
// while no jobs are in flight.
type Engine struct {
	sem   chan struct{}
	now   func() int64 // nanosecond wall clock, injected by the CLI
	prog  func(Run)
	exec  func(sim.Options) (sim.Metrics, error) // swapped by unit tests
	hooks Hooks

	mu     sync.Mutex
	memo   map[Key]*call
	stats  Stats
	faults fault.Counters

	eob engineObs
}

// Hooks is the per-run hook bundle the engine threads into every
// simulation it executes: the observer, the fault plan, and the RAS
// policy. None of it is part of the memo key — observation cannot change
// what a run computes, and one process runs one fault plan and one
// policy, so chaos and healthy runs must not share a process. The zero
// value arms nothing.
type Hooks struct {
	Obs    *obs.Observer // nil = unobserved
	Faults fault.Plan    // zero value = healthy runs
	RAS    ras.Config    // zero value = layer off
}

// engineObs holds the engine's registered instruments (nil when
// unobserved). Durations are wall-clock and therefore only meaningful when
// a clock was injected with SetClock; without one the histograms stay
// empty.
type engineObs struct {
	runs        *obs.Counter
	memoHits    *obs.Counter
	coalesced   *obs.Counter
	panics      *obs.Counter
	failed      *obs.Counter
	queueWaitMS *obs.Histogram
	runMS       *obs.Histogram
}

// engineDurBoundsMS buckets queue-wait and run wall times (milliseconds).
var engineDurBoundsMS = []int64{1, 10, 100, 1000, 10000}

// SetHooks arms the per-run hooks for every subsequent non-memoized run.
// With an observer, the engine also registers its own scheduling
// instruments under "engine."; with an enabled fault plan, every run gets
// its own deterministic injector, seeded from the plan seed and the run's
// canonical key, so a fixed (plan, job list) pair reproduces the same
// faults regardless of worker count. Must be called while no jobs are in
// flight.
func (e *Engine) SetHooks(h Hooks) {
	e.hooks = h
	o := h.Obs
	if o == nil {
		e.eob = engineObs{}
		return
	}
	e.eob = engineObs{
		runs:        o.Counter("engine.runs"),
		memoHits:    o.Counter("engine.memo.hits"),
		coalesced:   o.Counter("engine.memo.coalesced"),
		panics:      o.Counter("engine.panics"),
		failed:      o.Counter("engine.failed"),
		queueWaitMS: o.Histogram("engine.queueWaitMS", engineDurBoundsMS),
		runMS:       o.Histogram("engine.runMS", engineDurBoundsMS),
	}
}

// Hooks returns the armed hook bundle (zero value when nothing is armed).
func (e *Engine) Hooks() Hooks { return e.hooks }

// New returns an engine with the given worker-pool width; workers <= 0
// selects runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	e := &Engine{
		memo: map[Key]*call{},
	}
	e.exec = e.executeRun
	e.SetWorkers(workers)
	return e
}

// executeRun is the default exec: build a runner — with the engine's
// hooks and, when a fault plan is armed, a per-run injector seeded from
// the canonicalized run identity — and run it. Fault counters accumulate
// under e.mu; they are commutative sums, so the totals are independent of
// worker count and scheduling.
func (e *Engine) executeRun(opt sim.Options) (sim.Metrics, error) {
	var inj *fault.Injector
	if e.hooks.Faults.Enabled() {
		inj = fault.NewInjector(e.hooks.Faults, fault.RunSalt(fmt.Sprintf("%+v", KeyOf(opt))))
	}
	r, err := sim.NewRunnerFull(opt, e.hooks.Obs, inj, e.hooks.RAS)
	if err != nil {
		return sim.Metrics{}, err
	}
	m, err := r.Run()
	if inj != nil {
		e.mu.Lock()
		e.faults.Add(inj.Counters())
		e.mu.Unlock()
	}
	return m, err
}

// safeExec shields the worker pool from a panicking run: the panic is
// recovered into a *PanicError carrying the run's key and stack instead of
// unwinding through the scheduler and killing every in-flight simulation,
// and counted once. The run is not retried: it is a deterministic function
// of its key, so a second attempt could only panic again or hide a
// determinism bug.
func (e *Engine) safeExec(opt sim.Options) (m sim.Metrics, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Key: KeyOf(opt), Value: v, Stack: debug.Stack()}
			e.mu.Lock()
			e.stats.Panics++
			e.mu.Unlock()
			e.eob.panics.Inc()
		}
	}()
	return e.exec(opt)
}

// SetWorkers resizes the worker pool; n <= 0 selects runtime.GOMAXPROCS(0),
// and n is capped there too — extra workers on an oversubscribed host only
// add scheduling and cache-contention overhead (the `-j 4` slower than
// `-j 1` regression on small containers), never throughput. Results are
// byte-identical at any width, so the cap is purely a performance guard.
func (e *Engine) SetWorkers(n int) {
	if max := runtime.GOMAXPROCS(0); n <= 0 || n > max {
		n = max
	}
	e.sem = make(chan struct{}, n)
}

// Workers returns the worker-pool width.
func (e *Engine) Workers() int { return cap(e.sem) }

// SetClock injects a nanosecond wall clock for per-run timing; nil (the
// default) disables timing. Simulator results never depend on it.
func (e *Engine) SetClock(now func() int64) { e.now = now }

// SetProgress installs a hook invoked after every executed (non-memoized)
// run. The hook may be called from multiple goroutines.
func (e *Engine) SetProgress(fn func(Run)) { e.prog = fn }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// FaultCounters returns the faults fired across all executed runs.
func (e *Engine) FaultCounters() fault.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faults
}

// Run executes (or recalls) one simulation. Identical Options — after Key
// canonicalization — simulate exactly once per process: later callers get
// the memoized Metrics, and callers arriving while the run is in flight
// block on it rather than duplicating the work.
func (e *Engine) Run(opt sim.Options) (sim.Metrics, error) {
	k := KeyOf(opt)
	e.mu.Lock()
	if c, ok := e.memo[k]; ok {
		select {
		case <-c.done:
			e.stats.Hits++
			e.eob.memoHits.Inc()
		default:
			e.stats.Coalesced++
			e.eob.coalesced.Inc()
		}
		e.mu.Unlock()
		// Attribute the deduplicated request to its benchmark (registering
		// lazily: hit paths only exist for benchmarks actually deduped).
		// Guarded so unobserved engines skip the name concatenation — the
		// hit path should stay allocation-free.
		if e.hooks.Obs != nil {
			e.hooks.Obs.Counter("engine.memo.dedup." + opt.Benchmark).Inc()
		}
		<-c.done
		return c.m, c.err
	}
	c := &call{done: make(chan struct{})}
	e.memo[k] = c
	e.mu.Unlock()

	var qstart int64
	if e.now != nil {
		qstart = e.now()
	}
	e.sem <- struct{}{}
	var start int64
	if e.now != nil {
		start = e.now()
		e.eob.queueWaitMS.Observe((start - qstart) / 1e6)
	}
	c.m, c.err = e.safeExec(opt)
	if c.err != nil {
		e.mu.Lock()
		e.stats.Failed++
		if errors.Is(c.err, mc.ErrCapacityExhausted) {
			e.stats.Infeasible++
		}
		e.mu.Unlock()
		e.eob.failed.Inc()
	}
	if e.now != nil {
		c.nanos = e.now() - start
		e.eob.runMS.Observe(c.nanos / 1e6)
	}
	<-e.sem
	close(c.done)

	e.mu.Lock()
	e.stats.Runs++
	e.eob.runs.Inc()
	e.stats.RunNanos += c.nanos
	seq := e.stats.Runs
	prog := e.prog
	e.mu.Unlock()
	if prog != nil {
		prog(Run{Seq: seq, Opt: opt, Nanos: c.nanos, Err: c.err})
	}
	return c.m, c.err
}

// RunAll submits every job up front, executes them on the worker pool, and
// returns the results in submission order — deterministic assembly: the
// caller indexes results exactly as it built the job list, so its output
// cannot depend on scheduling. The returned error is the first failing
// job's, by index.
func (e *Engine) RunAll(jobs []sim.Options) ([]sim.Metrics, error) {
	ms := make([]sim.Metrics, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = e.Run(jobs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// Map runs f(0), ..., f(n-1) on the worker pool and waits for all of them.
// It is the engine's generic lane for non-simulator work (page-table
// scans, codec sweeps): f writes its result into slot i of a caller-owned
// slice and the caller assembles slots in index order, preserving the
// serial output bit-for-bit. f must not call Run, RunAll, or Map — it
// holds a worker slot for its whole duration, so nesting can deadlock the
// pool.
func (e *Engine) Map(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.sem <- struct{}{}
			defer func() { <-e.sem }()
			f(i)
		}(i)
	}
	wg.Wait()
}
