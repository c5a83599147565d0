package exp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tmcc/internal/config"
	"tmcc/internal/ibmdeflate"
	"tmcc/internal/mc"
	"tmcc/internal/sim"
	"tmcc/internal/workload"
)

func init() {
	register("fig17", Fig17)
	register("fig18", Fig18)
	register("fig19", Fig19)
	register("tab4", Tab4)
	register("fig20", Fig20)
	register("fig21", Fig21)
	register("fig22", Fig22)
	register("senssmall", SensSmall)
	register("senshuge", SensHuge)
	register("ablation-cte", AblationCTE)
}

// Fig17 compares TMCC against Compresso at Compresso's natural DRAM usage
// (saving the same amount of memory). Paper: +14% average, best for
// shortestPath and canneal, least for kcore and triCount.
func Fig17(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "TMCC performance normalized to Compresso (iso-capacity)",
		Header: []string{"benchmark", "tmcc/compresso"},
		Notes:  []string{"paper: 1.14 average; best shortestPath/canneal, least kcore/triCount"},
	}
	benches := workload.LargeBenchmarks()
	ms, err := grid(cfg, benches, each(sim.Options{Kind: mc.Compresso}, sim.Options{Kind: mc.TMCC}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		cp, tm := ms[i][0], ms[i][1]
		t.Add(b, tm.StoresPerCycle()/cp.StoresPerCycle())
	}
	t.GeoMean("geomean")
	return t, nil
}

// Fig18 reports the average L3 miss latency under no compression, Compresso
// and TMCC. Paper: 53 / 73.9 / 56.4 ns.
func Fig18(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "Average L3 miss latency (ns)",
		Header: []string{"benchmark", "no-comp", "compresso", "tmcc"},
		Notes:  []string{"paper averages: 53.0 / 73.9 / 56.4 ns"},
	}
	benches := workload.LargeBenchmarks()
	ms, err := grid(cfg, benches, each(
		sim.Options{Kind: mc.Uncompressed}, sim.Options{Kind: mc.Compresso}, sim.Options{Kind: mc.TMCC}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		nc, cp, tm := ms[i][0], ms[i][1], ms[i][2]
		t.Add(b, nc.AvgL3MissLatencyNS(), cp.AvgL3MissLatencyNS(), tm.AvgL3MissLatencyNS())
	}
	t.Mean("average")
	return t, nil
}

// Fig19 reports the distribution of TMCC's ML1 read accesses: CTE-cache
// hits, speculative parallel accesses with a correct embedded CTE, stale
// embedded CTEs, and serialized accesses without an embedding. Paper: 76%
// CTE$ hits, 22% parallel, the rest marginal.
func Fig19(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "Distribution of TMCC ML1 accesses",
		Header: []string{"benchmark", "cte$-hit", "parallel", "stale-cte", "serial"},
		Notes:  []string{"paper averages: 0.76 / 0.22 / ~0 / ~0.02"},
	}
	benches := workload.LargeBenchmarks()
	ms, err := grid(cfg, benches, each(sim.Options{Kind: mc.TMCC}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		m := ms[i][0]
		total := float64(m.MC.CTEHits + m.MC.CTEMisses)
		t.Add(b,
			float64(m.MC.CTEHits)/total,
			float64(m.MC.ParallelOK)/total,
			float64(m.MC.ParallelWrong)/total,
			float64(m.MC.SerialNoEmbed)/total)
	}
	t.Mean("average")
	return t, nil
}

// budgets holds the per-benchmark Table IV operating points.
type budgets struct {
	colB map[string]uint64 // Compresso usage
	colC map[string]uint64 // TMCC iso-performance usage
	spcB map[string]float64
}

// colBudgets finds Table IV's operating points: column B is Compresso's
// natural usage, column C is the smallest TMCC budget whose performance is
// still >= 99% of Compresso's (found by bisection, as the paper's sweep).
//
// All Compresso baselines are submitted up front, then the per-benchmark
// bisections run concurrently — each search is sequential inside (iteration
// k picks its candidate from iteration k-1's verdict) but independent of
// the other benchmarks. Every candidate evaluation goes through the
// engine's memo table, which generalizes the budget cache this function
// used to keep: tab4, fig20, fig21 and senssmall revisit these exact runs
// and get them for free, whatever order the experiments execute in.
func colBudgets(cfg Config, benches []string) (*budgets, error) {
	out := &budgets{colB: map[string]uint64{}, colC: map[string]uint64{}, spcB: map[string]float64{}}
	for _, b := range benches {
		out.colB[b] = sim.CompressoBudget(b, cfg.Seed)
	}
	cps, err := grid(cfg, benches, func(b string) []sim.Options {
		return []sim.Options{{Kind: mc.Compresso, BudgetPages: out.colB[b]}}
	})
	if err != nil {
		return nil, err
	}

	best := make([]uint64, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		out.spcB[b] = cps[i][0].StoresPerCycle()
		wg.Add(1)
		go func(i int, b string, colB uint64, spcB float64) {
			defer wg.Done()
			best[i], errs[i] = isoBudget(colB, spcB*0.99, func(budget uint64) (sim.Metrics, error) {
				return runOne(cfg, b, sim.Options{Kind: mc.TMCC, BudgetPages: budget})
			})
		}(i, b, out.colB[b], out.spcB[b])
	}
	wg.Wait()
	for i, b := range benches {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s iso-performance search: %w", b, errs[i])
		}
		out.colC[b] = best[i]
	}
	return out, nil
}

// isoBudget bisects [colB/3, colB] for the smallest budget whose probe
// still reaches target stores/cycle, in at most five probes. A probe that
// exhausts capacity marks its budget infeasible (bisect upward); any
// other probe error is a bug, not a verdict, and fails the search.
func isoBudget(colB uint64, target float64, probe func(budget uint64) (sim.Metrics, error)) (uint64, error) {
	lo, hi, best := colB/3, colB, colB
	for iter := 0; iter < 5 && hi-lo > colB/50; iter++ {
		mid := (lo + hi) / 2
		m, err := probe(mid)
		switch {
		case err != nil && !errors.Is(err, mc.ErrCapacityExhausted):
			return 0, err
		case err == nil && m.StoresPerCycle() >= target:
			best, hi = mid, mid
		default:
			lo = mid
		}
	}
	return best, nil
}

// Tab4 reports compression ratio normalized to Compresso at
// iso-performance. Paper: 2.2x on average for the large benchmarks.
func Tab4(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "tab4",
		Title: "DRAM usage and compression ratio at iso-performance",
		Header: []string{"benchmark", "colA-pages", "colB-compresso", "colC-tmcc",
			"ratioD-comp", "ratioE-tmcc", "colF-normalized"},
		Notes: []string{"paper column F average: 2.2"},
	}
	benches := workload.LargeBenchmarks()
	bg, err := colBudgets(cfg, benches)
	if err != nil {
		return nil, err
	}
	var sumF float64
	for _, b := range benches {
		spec, _ := workload.SpecFor(b)
		a := float64(spec.FootprintPages)
		cb := float64(bg.colB[b])
		cc := float64(bg.colC[b])
		f := cb / cc
		sumF += f
		t.Add(b, a, cb, cc, a/cb, a/cc, f)
	}
	t.Add("average", 0, 0, 0, 0, 0, sumF/float64(len(benches)))
	return t, nil
}

// Fig20 reports TMCC's improvement over the bare-bone OS-inspired design at
// the two DRAM usages of Table IV (columns B and C), split into the ML1
// optimization (embedded CTEs) and the ML2 optimization (fast Deflate).
// Paper: +12.5% at column B (8.25pp from ML1 + 4.25pp from ML2) and +15.4%
// at column C, where the ML2 part dominates.
func Fig20(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig20",
		Title:  "Improvement over bare-bone OS-inspired hardware compression",
		Header: []string{"usage", "barebone", "+ml1-only", "+ml2-only", "tmcc-full"},
		Notes: []string{
			"values are geomean speedups vs bare-bone at the same DRAM usage",
			"paper: +12.5% at col B (ML1 opt dominates), +15.4% at col C (ML2 opt dominates)",
		},
	}
	benches := workload.LargeBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	bg, err := colBudgets(cfg, benches)
	if err != nil {
		return nil, err
	}
	ibm := ibmdeflate.Default()
	// The bare-bone baseline and the three TMCC variants at one budget.
	designs := func(budget uint64) []sim.Options {
		return []sim.Options{
			{Kind: mc.OSInspired, BudgetPages: budget},
			// ML1 optimization only: embedding on, slow (IBM-class) ML2.
			{Kind: mc.TMCC, BudgetPages: budget,
				ML2HalfPage: ibm.HalfPageLatency(config.PageSize), ML2Compress: ibm.CompressLatency(config.PageSize)},
			// ML2 optimization only: fast Deflate, embedding off.
			{Kind: mc.TMCC, BudgetPages: budget, DisableEmbed: true},
			{Kind: mc.TMCC, BudgetPages: budget},
		}
	}
	cols := []string{"colB", "colC"}
	ms, err := grid(cfg, benches, func(b string) []sim.Options {
		return append(designs(bg.colB[b]), designs(bg.colC[b])...)
	})
	if err != nil {
		return nil, err
	}
	for c, col := range cols {
		// Geomean speedups of ML1-only, ML2-only and full TMCC.
		prods := []float64{1, 1, 1}
		for _, runs := range ms {
			// runs holds the designs at column B, then at column C.
			atCol := runs[c*len(runs)/len(cols):]
			s := atCol[0].StoresPerCycle()
			for k := range prods {
				prods[k] *= atCol[k+1].StoresPerCycle() / s
			}
		}
		row := []float64{1}
		for _, p := range prods {
			row = append(row, math.Pow(p, 1/float64(len(benches))))
		}
		t.Add(col, row...)
	}
	return t, nil
}

// Fig21 reports ML2 accesses normalized to LLC misses plus writebacks at
// the two Table IV DRAM usages. Paper: low single digits at column B,
// rising toward ~10% at column C for some benchmarks.
func Fig21(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig21",
		Title:  "ML2 accesses per (LLC miss + writeback)",
		Header: []string{"benchmark", "colB", "colC"},
	}
	benches := workload.LargeBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	bg, err := colBudgets(cfg, benches)
	if err != nil {
		return nil, err
	}
	ms, err := grid(cfg, benches, func(b string) []sim.Options {
		return []sim.Options{{Kind: mc.TMCC, BudgetPages: bg.colB[b]}, {Kind: mc.TMCC, BudgetPages: bg.colC[b]}}
	})
	if err != nil {
		return nil, err
	}
	rate := func(m sim.Metrics) float64 {
		return float64(m.MC.ML2Reads) / float64(m.LLCMisses+m.Writebacks)
	}
	for i, b := range benches {
		t.Add(b, rate(ms[i][0]), rate(ms[i][1]))
	}
	t.Mean("average")
	return t, nil
}

// Fig22 compares interleaving policies on a 16-core, 2-MC machine with
// bandwidth-hungry benchmarks: the TMCC-compatible policy (4KB across MCs,
// 256B across channels) against sub-page interleaving across MCs, and a
// page-everywhere policy. Paper: TMCC-compatible is within 1% on average
// (max -5%, up to +10% from row locality); page-across-channels loses
// 5-11% on the heaviest workloads.
func Fig22(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig22",
		Title:  "Interleaving policies normalized to sub-page across MCs",
		Header: []string{"benchmark", "tmcc-compatible", "page-everywhere"},
	}
	benches := []string{"shortestPath", "canneal", "mcf", "pageRank"}
	if cfg.Quick {
		benches = benches[:2]
	}
	mkSys := func(mcIl, chIl int) config.System {
		s := config.Default()
		s.CPU.Cores = 16
		s.DRAM.MCs = 2
		s.DRAM.Channels = 2
		s.DRAM.MCInterleaveBytes = mcIl
		s.DRAM.ChannelInterleaveBytes = chIl
		return s
	}
	ms, err := grid(cfg, benches, each(
		sim.Options{Kind: mc.Uncompressed, Sys: mkSys(512, 256)},
		sim.Options{Kind: mc.Uncompressed, Sys: mkSys(config.PageSize, 256)},
		sim.Options{Kind: mc.Uncompressed, Sys: mkSys(config.PageSize, config.PageSize)}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		base, compat, pageAll := ms[i][0], ms[i][1], ms[i][2]
		s := base.StoresPerCycle()
		t.Add(b, compat.StoresPerCycle()/s, pageAll.StoresPerCycle()/s)
	}
	t.GeoMean("geomean")
	return t, nil
}

// SensSmall evaluates the smaller, regular workloads. Paper: performance
// within ~1% of Compresso (max +5%, max -0.1%), while still providing 1.7x
// the capacity at iso-performance (max 3.1x for blackscholes).
func SensSmall(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "senssmall",
		Title:  "Smaller workloads: TMCC vs Compresso",
		Header: []string{"benchmark", "perf-ratio", "capacity-ratio"},
		Notes:  []string{"paper: perf within ~1%; capacity 1.7x avg, 3.1x max"},
	}
	benches := workload.SmallBenchmarks()
	if cfg.Quick {
		benches = benches[:2]
	}
	bg, err := colBudgets(cfg, benches)
	if err != nil {
		return nil, err
	}
	ms, err := grid(cfg, benches, func(b string) []sim.Options {
		return []sim.Options{{Kind: mc.TMCC, BudgetPages: bg.colB[b]}}
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.Add(b, ms[i][0].StoresPerCycle()/bg.spcB[b], float64(bg.colB[b])/float64(bg.colC[b]))
	}
	t.GeoMean("geomean")
	return t, nil
}

// SensHuge evaluates TMCC under 2MB huge pages: the ML1 optimization is
// ineffective (a huge-page PTB covers 16MB, far too much to embed CTEs
// for), but page-level CTE reach still helps. Paper: +6% performance or
// 1.8x capacity vs Compresso.
func SensHuge(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "senshuge",
		Title:  "Huge pages: TMCC (ML2-only benefit) vs Compresso",
		Header: []string{"benchmark", "tmcc/compresso"},
		Notes:  []string{"paper: +6% average at iso-capacity (embedding disabled)"},
	}
	benches := workload.LargeBenchmarks()
	if cfg.Quick {
		benches = benches[:3]
	}
	ms, err := grid(cfg, benches, each(
		sim.Options{Kind: mc.Compresso, HugePages: true}, sim.Options{Kind: mc.TMCC, HugePages: true}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		cp, tm := ms[i][0], ms[i][1]
		t.Add(b, tm.StoresPerCycle()/cp.StoresPerCycle())
	}
	t.GeoMean("geomean")
	return t, nil
}

// AblationCTE sweeps the CTE cache size and reach, quantifying Section IV's
// claim: quadrupling the block-level cache removes only ~13% of misses,
// while switching to page-level reach removes ~40%.
func AblationCTE(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-cte",
		Title:  "CTE miss rate vs cache size and reach (per LLC miss)",
		Header: []string{"benchmark", "64KB-block", "256KB-block", "64KB-page"},
		Notes:  []string{"paper: 34% -> 29.5% from 4X size, but -40% of misses from page-level reach"},
	}
	benches := workload.LargeBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	mk := func(sizeKB, reach int) *config.CTECacheCfg {
		return &config.CTECacheCfg{SizeKB: sizeKB, ReachPerBlock: reach, Assoc: 8}
	}
	ms, err := grid(cfg, benches, each(
		sim.Options{Kind: mc.Compresso, CTEOverride: mk(64, 4*config.KiB)},
		sim.Options{Kind: mc.Compresso, CTEOverride: mk(256, 4*config.KiB)},
		sim.Options{Kind: mc.Compresso, CTEOverride: mk(64, 32*config.KiB)}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		var vals []float64
		for _, m := range ms[i] {
			vals = append(vals, float64(m.MC.CTEMisses)/float64(m.LLCMisses))
		}
		t.Add(b, vals...)
	}
	t.Mean("average")
	return t, nil
}
