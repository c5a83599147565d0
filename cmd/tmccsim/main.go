// Command tmccsim regenerates the paper's tables and figures. Each
// experiment id maps to one table/figure of "Translation-optimized Memory
// Compression for Capacity" (MICRO 2022); see DESIGN.md for the index.
//
// Usage:
//
//	tmccsim -list
//	tmccsim -exp fig17
//	tmccsim -all [-quick] [-seed 42] [-j 4] [-stats]
//	tmccsim -exp fig18 -metrics out.json -trace out.trace -pprof :6060
//	tmccsim -run canneal -kind tmcc -budget 12000
//	tmccsim -run canneal -kind tmcc -faults cte=0.05,payload=0.02 -chaos-seed 7 -ras
//	tmccsim -campaign 25 -seed 42 -campaign-out failures.txt
//
// All experiments run through the shared engine in internal/exp/engine:
// -j bounds the simulation worker pool, and identical simulation points
// requested by different experiments execute once per process. Output is
// byte-identical for every -j value — including with -metrics/-trace,
// which observe the runs without perturbing them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"tmcc/internal/config"
	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
	"tmcc/internal/ras"
	"tmcc/internal/sim"
)

func main() {
	var (
		id      = flag.String("exp", "", "experiment id (fig1, fig17, tab4, ...)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		quick   = flag.Bool("quick", false, "shorter windows (CI-sized)")
		seed    = flag.Int64("seed", 42, "simulation seed")
		format  = flag.String("format", "text", "output format: text | markdown | csv")
		jobs    = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
		stats   = flag.Bool("stats", false, "per-run progress lines on stderr and engine counters at exit")
		metrics = flag.String("metrics", "", "write an obs registry snapshot (JSON) to this file at exit")
		trace   = flag.String("trace", "", "write a Chrome trace_event JSON (simulated time) to this file at exit")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")

		timelineOut    = flag.String("timeline", "", "write the windowed timeline CSV to this file at exit")
		timelineWindow = flag.Duration("timeline-window", time.Millisecond, "simulated-time window width for -timeline (a wall-clock syntax naming a simulated duration)")

		heatmapOut    = flag.String("heatmap", "", "write the address-space heatmap CSV to this file at exit (top regions table on stderr)")
		heatmapRegion = flag.Uint64("heatmap-region", heatmap.DefaultRegionPages, "heatmap region size in 4KB pages (rounded up to a power of two)")

		breakdown    = flag.Bool("breakdown", false, "print the latency-attribution breakdown table (stderr) at exit")
		breakdownCSV = flag.String("breakdown-csv", "", "write the latency-attribution breakdown CSV to this file at exit")
		flame        = flag.String("flame", "", "write the attribution breakdown as a collapsed-stack file (FlameGraph/speedscope) at exit")

		single    = flag.String("run", "", "run one benchmark instead of an experiment (with -kind/-budget)")
		kindName  = flag.String("kind", "tmcc", "memory-controller design for -run: uncompressed | compresso | os-inspired | tmcc")
		budget    = flag.Uint64("budget", 0, "DRAM budget in 4KB frames for -run (0 = Compresso's natural usage)")
		faults    = flag.String("faults", "", "fault plan, e.g. cte=0.02,stale=0.01,payload=0.01,spike=0.005:250ns,busy=0.005:100ns:3")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault plan's deterministic injectors")
		rasOn     = flag.Bool("ras", false, "arm the self-healing RAS layer (page retirement, degraded mode, CTE scrubbing) with the default policy")

		campaign     = flag.Int("campaign", 0, "run N seeded chaos fault plans through the invariant battery, minimizing any failure")
		campaignOut  = flag.String("campaign-out", "campaign-failures.txt", "artifact path for minimized failing plans (with -campaign)")
		campaignPlan = flag.String("campaign-plan", "", "run the invariant battery once on this fault plan (the repro hook -campaign artifacts name)")
	)
	flag.Parse()

	cfg := exp.Config{Seed: *seed, Quick: *quick}

	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}

	// The engine itself never reads the wall clock (internal/ stays
	// deterministic); the clock is injected here, for accounting only.
	eng := exp.Engine()
	eng.SetWorkers(*jobs)
	eng.SetClock(func() int64 { return time.Now().UnixNano() })
	plan, err := parseFaults(*faults, *chaosSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkObsFlags(*heatmapRegion, *timelineWindow); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	hooks := engine.Hooks{Faults: plan}
	if *rasOn {
		hooks.RAS = ras.Default()
	}

	// Observability: the registry/tracer are created and their output files
	// opened here at the cmd layer (internal/ is sink-free; tmcclint
	// obs-sink-purity). Each surface is built only when requested, so a
	// plain run stays on the nil fast path.
	needAttr := *breakdown || *breakdownCSV != "" || *flame != ""
	needTimeline := *timelineOut != ""
	needHeatmap := *heatmapOut != ""
	var ob *obs.Observer
	if *metrics != "" || *trace != "" || needAttr || needTimeline || needHeatmap {
		ob = &obs.Observer{}
		if *metrics != "" || needTimeline || needHeatmap {
			// The heatmap arms the registry too: VerifyHeatmap audits the
			// per-region event sums against the lifetime mc.* counters.
			ob.Reg = obs.NewRegistry()
		}
		if *trace != "" {
			ob.Tr = obs.NewTracer(0)
		}
		if needAttr || needTimeline || needHeatmap {
			// Likewise, per-class heat is audited against the lifetime attr
			// class counts.
			ob.At = attr.NewRecorder()
		}
		if needTimeline {
			// The flag names a *simulated* duration in wall-clock syntax
			// (1ms = one simulated millisecond); internal/ never sees the
			// wall clock.
			ob.TL = timeline.NewRecorder(config.Time(timelineWindow.Nanoseconds()) * config.Nanosecond)
		}
		if needHeatmap {
			ob.Heat = heatmap.NewRecorder(*heatmapRegion, 0)
		}
	}
	hooks.Obs = ob
	eng.SetHooks(hooks)
	if *stats {
		eng.SetProgress(func(r engine.Run) {
			fmt.Fprintf(os.Stderr, "run %4d  %-16s %-14v %8.2fs\n",
				r.Seq, r.Opt.Benchmark, r.Opt.Kind, float64(r.Nanos)/1e9)
		})
	}
	start := time.Now()

	failed := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, diagnose(err))
		failed = true
	}
	switch {
	case *list:
		fmt.Println(strings.Join(exp.IDs(), "\n"))
	case *campaign > 0:
		if err := runCampaign(os.Stdout, *campaign, *jobs, *seed, *campaignOut); err != nil {
			fail(err)
		}
	case *campaignPlan != "":
		plan, err := fault.ParsePlan(strings.TrimSpace(*campaignPlan))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		plan.Seed = *chaosSeed
		if err := runBattery(plan, *jobs, *seed); err != nil {
			fail(fmt.Errorf("campaign-plan %q: %w", plan, err))
		} else {
			fmt.Printf("campaign-plan %q: all invariants held\n", plan)
		}
	case *single != "":
		if err := runSingle(os.Stdout, eng, *single, *kindName, *budget, cfg); err != nil {
			fail(err)
		}
	case *all:
		// A failing experiment (capacity exhaustion, a crashed run) no
		// longer aborts the sweep: the rest of the suite completes, every
		// failure is diagnosed on stderr, and the exit code stays nonzero.
		for _, eid := range exp.IDs() {
			if err := run(os.Stdout, eid, cfg, *format); err != nil {
				fail(err)
			}
		}
	case *id != "":
		if err := run(os.Stdout, *id, cfg, *format); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *stats {
		printStats(os.Stderr, eng.Stats(), *jobs, time.Since(start), ob)
	}
	if eng.Hooks().Faults.Enabled() {
		fmt.Fprintf(os.Stderr, "faults: %v\n", eng.FaultCounters())
	}
	if err := export(os.Stderr, ob, outputs{
		metrics: *metrics, trace: *trace, timeline: *timelineOut, heatmap: *heatmapOut,
		breakdownCSV: *breakdownCSV, flame: *flame, breakdown: *breakdown,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// parseFaults parses the -faults flag into the plan the engine arms. A
// whitespace-only spec, and a spec that parses but enables nothing (all
// probabilities zero), are strict no-ops: the zero plan leaves the engine
// healthy and the run byte-identical to one without the flag.
func parseFaults(spec string, seed int64) (fault.Plan, error) {
	f := strings.TrimSpace(spec)
	if f == "" {
		return fault.Plan{}, nil
	}
	plan, err := fault.ParsePlan(f)
	if err != nil || !plan.Enabled() {
		return fault.Plan{}, err
	}
	plan.Seed = seed
	return plan, nil
}

// checkObsFlags rejects observation geometry the recorders cannot honour:
// a heatmap region above 1<<63 pages has no power of two to round up to,
// and a timeline window must be a positive simulated duration.
func checkObsFlags(regionPages uint64, window time.Duration) error {
	if regionPages > 1<<63 {
		return fmt.Errorf("-heatmap-region %d: rounds up past the largest power of two (%d pages)", regionPages, uint64(1)<<63)
	}
	if window <= 0 {
		return fmt.Errorf("-timeline-window %v: must be a positive simulated duration", window)
	}
	return nil
}

// diagnose turns the one actionable failure class into a one-line
// instruction: capacity exhaustion is a configuration problem (budget too
// small for the working set), not a simulator bug.
func diagnose(err error) string {
	if errors.Is(err, mc.ErrCapacityExhausted) {
		return "capacity exhausted: " + err.Error()
	}
	return err.Error()
}

// parseKind maps a -kind flag value onto a memory-controller design.
func parseKind(name string) (mc.Kind, error) {
	for _, k := range []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q (uncompressed | compresso | os-inspired | tmcc)", name)
}

// runSingle executes one (benchmark, design, budget) point through the
// engine — so fault plans, memoization, and observability all apply — and
// prints a compact scorecard. It is the chaos harness's entry point:
// small enough to rerun twice and diff.
func runSingle(w io.Writer, eng *engine.Engine, bench, kindName string, budget uint64, cfg exp.Config) error {
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	warm, measure := cfg.Windows()
	m, err := eng.Run(sim.Options{
		Benchmark:       bench,
		Kind:            kind,
		BudgetPages:     budget,
		WarmupAccesses:  warm,
		MeasureAccesses: measure,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s/%s: stores/cycle %.4f  ipc %.3f  avgL3missNS %.1f  ml2reads %d  parallelOK %d  parallelWrong %d  used %d\n",
		bench, kind, m.StoresPerCycle(), m.IPC(), m.AvgL3MissLatencyNS(),
		m.MC.ML2Reads, m.MC.ParallelOK, m.MC.ParallelWrong, m.Used)
	return nil
}

// outputs names the observation artifacts one invocation asked for: a
// file per non-empty path, and the -breakdown table on stderr.
type outputs struct {
	metrics, trace, timeline, heatmap, breakdownCSV, flame string
	breakdown                                              bool
}

// export writes the requested observation artifacts from ob. It verifies
// the observer first (attr conservation, and the timeline and heatmap
// against the lifetime sinks), so a failed audit creates no file: the
// artifacts would lie about where cycles went. Then it writes every
// requested file and renders the stderr views — the heatmap's top
// regions and the -breakdown table — into stderr.
func export(stderr io.Writer, ob *obs.Observer, out outputs) error {
	if ob == nil {
		return nil
	}
	ob.SyncDerived()
	if err := ob.Verify(); err != nil {
		return err
	}
	at, tl, hm := ob.At.Snapshot(), ob.TL.Snapshot(), ob.Heat.Snapshot()
	for _, a := range []struct {
		flag, path string
		write      func(io.Writer) error
	}{
		{"metrics", out.metrics, func(w io.Writer) error { return ob.Reg.Snapshot().WriteJSON(w) }},
		// A timeline that rode along joins the trace as "C" counter events.
		{"trace", out.trace, func(w io.Writer) error { return ob.Tr.WriteChromeTraceTimeline(w, tl) }},
		{"timeline", out.timeline, tl.WriteCSV},
		{"heatmap", out.heatmap, hm.WriteCSV},
		{"breakdown-csv", out.breakdownCSV, at.WriteCSV},
		{"flame", out.flame, func(w io.Writer) error { return obs.WriteCollapsed(w, at) }},
	} {
		if a.path == "" {
			continue
		}
		if err := writeFile(a.path, a.write); err != nil {
			return fmt.Errorf("%s: %w", a.flag, err)
		}
	}
	if out.heatmap != "" {
		if err := hm.WriteTopRegions(stderr, 10); err != nil {
			return fmt.Errorf("heatmap: %w", err)
		}
	}
	if out.breakdown {
		if err := at.WriteTable(stderr); err != nil {
			return fmt.Errorf("breakdown: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes one experiment and renders its table; split from main so the
// smoke test can drive it.
func run(w io.Writer, id string, cfg exp.Config, format string) error {
	r, ok := exp.Get(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q; -list shows ids", id)
	}
	t, err := r(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	switch format {
	case "markdown":
		fmt.Fprintln(w, t.Markdown())
	case "csv":
		fmt.Fprintln(w, t.CSV())
	default:
		fmt.Fprintln(w, t.String())
	}
	return nil
}

// printStats renders the engine counters; split from main for the smoke test.
func printStats(w io.Writer, st engine.Stats, workers int, wall time.Duration, ob *obs.Observer) {
	fmt.Fprintf(w, "engine: %d workers, %d runs executed, %d cache hits (%d coalesced in flight)\n",
		workers, st.Runs, st.Hits, st.Coalesced)
	if failed := st.Failed - st.Infeasible; st.Panics > 0 || failed > 0 {
		fmt.Fprintf(w, "engine: %d worker panics recovered, %d runs failed\n",
			st.Panics, failed)
	}
	if st.Infeasible > 0 {
		fmt.Fprintf(w, "engine: %d runs infeasible (capacity exhausted at their budget)\n", st.Infeasible)
	}
	simTime := time.Duration(st.RunNanos)
	mean := time.Duration(0)
	if st.Runs > 0 {
		mean = simTime / time.Duration(st.Runs)
	}
	fmt.Fprintf(w, "engine: %v simulation time across workers (%v mean per run), %v wall clock\n",
		simTime.Round(time.Millisecond), mean.Round(time.Millisecond), wall.Round(time.Millisecond))
	fmt.Fprintln(w, statsJSON(st, wall, ob))
}

// statsJSON renders the machine-readable one-line engine summary (the last
// -stats line, for scripts). failed leaves out the infeasible runs, which
// infeasible counts. When an observer rode along, the line also carries
// the tracer's dropped-span count and the attribution totals, so a run's
// log captures them without extra files.
func statsJSON(st engine.Stats, wall time.Duration, ob *obs.Observer) string {
	out := struct {
		Executed     uint64  `json:"executed"`
		Deduplicated uint64  `json:"deduplicated"`
		WallSeconds  float64 `json:"wallSeconds"`
		Panics       uint64  `json:"panics,omitempty"`
		Failed       uint64  `json:"failed,omitempty"`
		Infeasible   uint64  `json:"infeasible,omitempty"`
		DroppedSpans uint64  `json:"droppedSpans,omitempty"`
		AttrAccesses uint64  `json:"attrAccesses,omitempty"`
		AttrTotalPS  int64   `json:"attrTotalPS,omitempty"`
	}{
		Executed: st.Runs, Deduplicated: st.Hits + st.Coalesced, WallSeconds: wall.Seconds(),
		Panics: st.Panics, Failed: st.Failed - st.Infeasible, Infeasible: st.Infeasible,
	}
	if ob != nil {
		out.DroppedSpans = ob.Tr.Dropped()
		out.AttrAccesses, out.AttrTotalPS = ob.At.Snapshot().Totals()
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(fmt.Sprintf("tmccsim: marshaling stats: %v", err))
	}
	return string(b)
}
