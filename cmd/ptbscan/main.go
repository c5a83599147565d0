// Command ptbscan reproduces the paper's page-table-dump experiment
// (Figure 6): it builds a modeled address space, scans every page table
// block, and reports the fraction whose eight PTEs carry identical status
// bits, per level — the property that makes hardware PTB compression
// (Figure 7) almost always applicable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tmcc/internal/config"
	"tmcc/internal/pagetable"
	"tmcc/internal/ptbcomp"
)

func main() {
	var (
		pages = flag.Uint64("pages", 1<<20, "mapped data pages")
		seed  = flag.Int64("seed", 42, "allocator seed")
		huge  = flag.Bool("huge", false, "map with 2MB pages")
	)
	flag.Parse()
	scan(os.Stdout, *pages, *seed, *huge)
}

// scan runs the experiment and writes the report; split from main so the
// smoke test can drive it.
func scan(w io.Writer, pages uint64, seed int64, huge bool) {
	cfg := pagetable.DefaultOSConfig(seed)
	cfg.HugePages = huge
	as := pagetable.BuildAddressSpace(pages, pages*4, cfg)

	pcfg := ptbcomp.NewConfig(pages*4*config.PageSize, 1<<40)
	same, total := as.Table.StatusScan()
	compressible, all := 0, 0
	as.Table.PTBs(func(b pagetable.PTB) {
		all++
		if pcfg.Compressible(&b.PTEs) {
			compressible++
		}
	})
	for _, lvl := range []int{1, 2, 3, 4} {
		if total[lvl] == 0 {
			continue
		}
		fmt.Fprintf(w, "L%d PTBs: %7d  identical status bits: %.4f\n",
			lvl, total[lvl], float64(same[lvl])/float64(total[lvl]))
	}
	fmt.Fprintf(w, "hardware-compressible PTBs overall: %.4f (embeds up to %d CTEs each)\n",
		float64(compressible)/float64(all), pcfg.MaxEmbeddable())
	fmt.Fprintf(w, "paper reference: L1 0.9994, L2 0.993\n")
}
