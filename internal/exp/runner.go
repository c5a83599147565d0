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
// on iteration k-1 — use this; fan-out sites submit a job grid.
func runOne(cfg Config, bench string, opt sim.Options) (sim.Metrics, error) {
	return eng.Run(fullOptions(cfg, bench, opt))
}

// grid runs variants(b) for every benchmark b, all submitted as one job
// list, and returns ms[i][v]: the metrics of variant v on benches[i].
// Results are collected by submission index, so a table assembled from
// them cannot depend on how the pool scheduled the runs.
func grid(cfg Config, benches []string, variants func(bench string) []sim.Options) ([][]sim.Metrics, error) {
	var jobs []sim.Options
	counts := make([]int, len(benches))
	for i, b := range benches {
		vs := variants(b)
		counts[i] = len(vs)
		for _, v := range vs {
			jobs = append(jobs, fullOptions(cfg, b, v))
		}
	}
	flat, err := eng.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	ms := make([][]sim.Metrics, len(benches))
	for i, n := range counts {
		ms[i], flat = flat[:n:n], flat[n:]
	}
	return ms, nil
}

// each is the variants function of a grid whose variants are the same
// for every benchmark.
func each(variants ...sim.Options) func(string) []sim.Options {
	return func(string) []sim.Options { return variants }
}
