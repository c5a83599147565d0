package exp

import (
	"tmcc/internal/mc"
	"tmcc/internal/sim"
)

func init() {
	register("ext-2dwalk", Ext2DWalk)
}

// Ext2DWalk evaluates TMCC under virtualization (Section V-A3, Figure 12b):
// each TLB miss triggers a 2D page walk whose constituent host walks all
// use host PTBs, so TMCC's embedded CTEs accelerate every step. The paper
// describes but does not quantify this; we report it as an extension —
// the expectation is a larger TMCC win than native, since 2D walks multiply
// the walk-related misses TMCC parallelizes.
func Ext2DWalk(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "ext-2dwalk",
		Title:  "Virtualized (2D page walks): TMCC vs Compresso (extension)",
		Header: []string{"benchmark", "native", "virtualized", "walkrefs/walk"},
		Notes: []string{
			"extension: the paper describes 2D-walk support (Fig 12b) without numbers",
			"columns are TMCC/Compresso performance ratios",
		},
	}
	benches := []string{"pageRank", "shortestPath", "mcf", "canneal"}
	if cfg.Quick {
		benches = benches[:2]
	}
	ms, err := grid(cfg, benches, each(
		sim.Options{Kind: mc.Compresso},
		sim.Options{Kind: mc.TMCC},
		sim.Options{Kind: mc.Compresso, Virtualized: true},
		sim.Options{Kind: mc.TMCC, Virtualized: true}))
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		cpN, tmN, cpV, tmV := ms[i][0], ms[i][1], ms[i][2], ms[i][3]
		t.Add(b,
			tmN.StoresPerCycle()/cpN.StoresPerCycle(),
			tmV.StoresPerCycle()/cpV.StoresPerCycle(),
			float64(tmV.WalkRefs)/float64(tmV.Walks+1))
	}
	t.GeoMean("geomean")
	return t, nil
}
