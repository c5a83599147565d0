package exp

import (
	"tmcc/internal/config"
	"tmcc/internal/mc"
	"tmcc/internal/pagetable"
	"tmcc/internal/sim"
	"tmcc/internal/workload"
)

func init() {
	register("fig1", Fig1)
	register("fig2", Fig2)
	register("fig5", Fig5)
	register("fig6", Fig6)
	register("fig16", Fig16)
}

// Fig1 reports TLB misses and CTE misses normalized to LLC misses under the
// Section III setup: block-level CTEs with a 64KB CTE cache. Paper: CTE
// misses (34% avg) exceed TLB misses (30% avg) because every request,
// including the page walker's, needs a CTE.
func Fig1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig1",
		Title:  "TLB and CTE misses per LLC miss (block-level CTEs, 64KB CTE$)",
		Header: []string{"benchmark", "tlb/llc", "cte/llc"},
		Notes: []string{
			"paper averages: TLB 0.30, CTE 0.34; CTE >= TLB for most workloads",
		},
	}
	cte := config.ProblemCTE()
	benches := workload.LargeBenchmarks()
	ms, err := grid(cfg, benches, each(sim.Options{Kind: mc.Compresso, CTEOverride: &cte}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		m := ms[i][0]
		t.Add(b,
			float64(m.TLBMisses)/float64(m.LLCMisses),
			float64(m.MC.CTEMisses)/float64(m.LLCMisses))
	}
	t.Mean("average")
	return t, nil
}

// Fig2 reports CTE hits per LLC miss under a 4X (256KB) CTE cache plus an
// LLC-sized victim structure. Paper: 70.5% average hit rate in the bigger
// CTE$; even with the LLC as victim, ~21% of translations still go to DRAM.
func Fig2(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "CTE hits per LLC miss: 4X CTE$ and LLC-victim (block-level)",
		Header: []string{"benchmark", "hit-in-cte$", "hit-in-llc", "to-dram"},
		Notes: []string{
			"paper: 70.5% average CTE$ hit; ~21% still reach DRAM with LLC victim",
			"the victim structure is statistics-only: caching CTEs in LLC is a loss (Section III)",
		},
	}
	cte := config.CTECacheCfg{SizeKB: 256, ReachPerBlock: 4 * config.KiB, Assoc: 8}
	benches := workload.LargeBenchmarks()
	ms, err := grid(cfg, benches, each(sim.Options{Kind: mc.Compresso, CTEOverride: &cte, VictimShadow: true}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		m := ms[i][0]
		total := float64(m.MC.CTEHits + m.MC.CTEMisses)
		hitCTE := float64(m.MC.CTEHits) / total
		hitLLC := float64(m.MC.CTEVictimHits) / total
		t.Add(b, hitCTE, hitLLC, 1-hitCTE-hitLLC)
	}
	t.Mean("average")
	return t, nil
}

// Fig5 reports the fraction of CTE misses that immediately follow TLB
// misses (walker fetches plus the subsequent data access), with page-level
// 8B CTEs. Paper: 89% on average — the basis for prefetching CTEs during
// page walks.
func Fig5(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "CTE misses due to accesses right after a TLB miss (page-level CTEs)",
		Header: []string{"benchmark", "walk-related"},
		Notes:  []string{"paper average: 0.89"},
	}
	benches := workload.LargeBenchmarks()
	// The bare-bone OS-inspired design has page-level CTEs and no
	// embedding, isolating the correlation.
	ms, err := grid(cfg, benches, each(sim.Options{Kind: mc.OSInspired}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		m := ms[i][0]
		if m.MC.CTEMisses == 0 {
			t.Add(b, 0)
			continue
		}
		t.Add(b, float64(m.MC.CTEMissWalkRelated)/float64(m.MC.CTEMisses))
	}
	t.Mean("average")
	return t, nil
}

// Fig6 scans modeled page tables and reports the fraction of L1/L2 PTBs
// whose eight entries carry identical status bits. Paper: 99.94% and 99.3%.
// The per-benchmark scans are independent, so they run on the engine's
// worker pool; rows and the running sums are assembled in benchmark order.
func Fig6(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "PTBs with identical status bits across all 8 PTEs",
		Header: []string{"benchmark", "L1-PTBs", "L2-PTBs"},
		Notes:  []string{"paper averages: L1 0.9994, L2 0.993"},
	}
	pages := uint64(1 << 20)
	if cfg.Quick {
		pages = 1 << 17
	}
	benches := workload.LargeBenchmarks()
	l1s := make([]float64, len(benches))
	l2s := make([]float64, len(benches))
	eng.Map(len(benches), func(i int) {
		as := pagetable.BuildAddressSpace(pages, pages*4, pagetable.DefaultOSConfig(cfg.Seed+int64(i)))
		same, total := as.Table.StatusScan()
		l1s[i] = float64(same[1]) / float64(total[1])
		l2s[i] = float64(same[2]) / float64(total[2])
	})
	var sumL1, sumL2 float64
	for i, b := range benches {
		sumL1 += l1s[i]
		sumL2 += l2s[i]
		t.Add(b, l1s[i], l2s[i])
	}
	t.Add("average", sumL1/float64(len(benches)), sumL2/float64(len(benches)))
	return t, nil
}

// Fig16 characterizes memory intensiveness per benchmark with no
// compression: bus utilization split into reads and writes.
func Fig16(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Memory access characterization (no compression)",
		Header: []string{"benchmark", "read-util", "write-util", "ipc"},
		Notes:  []string{"paper: read utilization 10-60%, shortestPath/canneal highest"},
	}
	benches := workload.LargeBenchmarks()
	ms, err := grid(cfg, benches, each(sim.Options{Kind: mc.Uncompressed}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		m := ms[i][0]
		rw := float64(m.DRAMReads + m.DRAMWrites)
		readFrac := 1.0
		if rw > 0 {
			readFrac = float64(m.DRAMReads) / rw
		}
		t.Add(b, m.BusUtilization*readFrac, m.BusUtilization*(1-readFrac), m.IPC())
	}
	t.Mean("average")
	return t, nil
}
