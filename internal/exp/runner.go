package exp

import (
	"tmcc/internal/exp/engine"
	"tmcc/internal/sim"
)

// eng is the process-wide run engine every experiment routes through: one
// memo table means a (benchmark, design, windows, seed) point shared by
// several figures — fig17/fig18/fig19 and the Table IV budget search all
// revisit the same Compresso and TMCC runs — simulates exactly once.
var eng = engine.New(0)

// Engine exposes the shared run engine so cmd/tmccsim can configure the
// worker-pool width (-j), inject the wall clock, and print counters
// (-stats), and so tests can read them.
func Engine() *engine.Engine { return eng }

// fullOptions completes opt with the experiment-wide scaling knobs: the
// benchmark, seed and warmup/measure windows. The result is the canonical
// job description the engine memoizes on, so every experiment must build
// its jobs through here.
func fullOptions(cfg Config, bench string, opt sim.Options) sim.Options {
	warm, meas := cfg.Windows()
	opt.Benchmark = bench
	opt.Seed = cfg.Seed
	opt.WarmupAccesses = warm
	opt.MeasureAccesses = meas
	return opt
}

// runOne executes (or recalls) a single simulation through the engine.
// Sequential call sites — the budget bisection, whose iteration k depends
// on iteration k-1 — use this; fan-out sites submit a job list via runAll.
func runOne(cfg Config, bench string, opt sim.Options) (sim.Metrics, error) {
	return eng.Run(fullOptions(cfg, bench, opt))
}

// runAll submits the full job list up front and collects results by
// submission index: the experiment's table is assembled in job order, so
// its bytes cannot depend on how the pool scheduled the runs.
func runAll(jobs []sim.Options) ([]sim.Metrics, error) {
	return eng.RunAll(jobs)
}
