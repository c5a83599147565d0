package exp

import (
	"fmt"

	"tmcc/internal/config"
	"tmcc/internal/mc"
	"tmcc/internal/sim"
)

func init() {
	register("ablation-ctebuf", AblationCTEBuf)
	register("ablation-recency", AblationRecency)
	register("ablation-tlb", AblationTLB)
}

// sweepBenches is a small representative set for parameter sweeps: the two
// most translation-bound workloads plus one moderate one.
func sweepBenches(cfg Config) []string {
	if cfg.Quick {
		return []string{"canneal"}
	}
	return []string{"shortestPath", "canneal", "pageRank"}
}

// AblationCTEBuf sweeps the CTE Buffer size (the paper fixes 64 entries,
// ~1KB): too small and embedded CTEs are evicted between the walk and the
// data access, falling back to serialized translation.
func AblationCTEBuf(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-ctebuf",
		Title:  "TMCC parallel-access fraction vs CTE Buffer entries",
		Header: []string{"entries", "parallel-frac", "serial-frac", "spc"},
		Notes:  []string{"paper picks 64 entries (~1KB); the curve saturates near there"},
	}
	points := []int{8, 16, 32, 64, 128}
	variants := make([]sim.Options, len(points))
	for p, entries := range points {
		sys := config.Default()
		sys.Comp.CTEBufEntries = entries
		variants[p] = sim.Options{Kind: mc.TMCC, Sys: sys}
	}
	ms, err := grid(cfg, sweepBenches(cfg), each(variants...))
	if err != nil {
		return nil, err
	}
	n := float64(len(ms))
	for p, entries := range points {
		var par, ser, spc float64
		for _, runs := range ms {
			m := runs[p]
			miss := float64(m.MC.CTEHits + m.MC.CTEMisses)
			par += float64(m.MC.ParallelOK+m.MC.ParallelWrong) / miss
			ser += float64(m.MC.SerialNoEmbed) / miss
			spc += m.StoresPerCycle()
		}
		t.Add(fmt.Sprintf("%d", entries), par/n, ser/n, spc/n)
	}
	return t, nil
}

// AblationRecency sweeps the Recency List sampling rate (the paper uses 1%
// of ML1 accesses): sampling too rarely lets hot pages drift to the cold
// end and get evicted to ML2.
func AblationRecency(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-recency",
		Title:  "ML2 demand rate vs Recency List sampling rate",
		Header: []string{"sample-rate", "ml2-per-miss", "spc"},
		Notes:  []string{"paper samples 1% of ML1 accesses"},
	}
	rates := []float64{0.001, 0.01, 0.05, 0.2}
	variants := make([]sim.Options, len(rates))
	for p, rate := range rates {
		sys := config.Default()
		sys.Comp.RecencySampleRate = rate
		variants[p] = sim.Options{Kind: mc.TMCC, Sys: sys}
	}
	ms, err := grid(cfg, sweepBenches(cfg), each(variants...))
	if err != nil {
		return nil, err
	}
	n := float64(len(ms))
	for p, rate := range rates {
		var ml2, spc float64
		for _, runs := range ms {
			m := runs[p]
			ml2 += float64(m.MC.ML2Reads) / float64(m.LLCMisses+1)
			spc += m.StoresPerCycle()
		}
		t.Add(fmt.Sprintf("%.3f", rate), ml2/n, spc/n)
	}
	return t, nil
}

// AblationTLB sweeps the TLB size: the smaller the TLB, the more page walks
// and therefore the more CTE misses TMCC can parallelize — the paper's
// Section VI note about matching Zen 3's reach works the other way too.
func AblationTLB(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ablation-tlb",
		Title:  "TMCC benefit vs TLB entries",
		Header: []string{"tlb-entries", "tlb-miss/llc", "tmcc/compresso"},
		Notes:  []string{"smaller TLBs raise walk rates and widen TMCC's advantage"},
	}
	points := []int{512, 1024, 2048, 4096} //tmcclint:allow magic-literal (TLB entry count)
	// Every point on Compresso, then every point on TMCC.
	variants := make([]sim.Options, 2*len(points))
	for p, entries := range points {
		sys := config.Default()
		sys.CPU.TLBEntries = entries
		variants[p] = sim.Options{Kind: mc.Compresso, Sys: sys}
		variants[len(points)+p] = sim.Options{Kind: mc.TMCC, Sys: sys}
	}
	ms, err := grid(cfg, sweepBenches(cfg), each(variants...))
	if err != nil {
		return nil, err
	}
	n := float64(len(ms))
	for p, entries := range points {
		var missRatio, ratio float64
		for _, runs := range ms {
			cps, tms := runs[:len(points)], runs[len(points):]
			cp, tm := cps[p], tms[p]
			missRatio += float64(cp.TLBMisses) / float64(cp.LLCMisses)
			ratio += tm.StoresPerCycle() / cp.StoresPerCycle()
		}
		t.Add(fmt.Sprintf("%d", entries), missRatio/n, ratio/n)
	}
	return t, nil
}
