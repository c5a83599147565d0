// Command ptbscan reproduces the paper's page-table-dump experiment
// (Figure 6): it builds a modeled address space, scans every page table
// block, and reports the fraction whose eight PTEs carry identical status
// bits, per level — the property that makes hardware PTB compression
// (Figure 7) almost always applicable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"tmcc/internal/config"
	"tmcc/internal/pagetable"
	"tmcc/internal/ptbcomp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, writes the report to stdout and returns the exit code:
// 0, or 2 with a usage message on stderr for a malformed flag or a flag
// value it cannot serve.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptbscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pages = fs.Uint64("pages", 1<<20, "mapped data pages")
		seed  = fs.Int64("seed", 42, "allocator seed")
		huge  = fs.Bool("huge", false, "map with 2MB pages")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := scan(stdout, *pages, *seed, *huge); err != nil {
		fmt.Fprintf(stderr, "ptbscan: %v\n", err)
		fs.Usage()
		return 2
	}
	return 0
}

// checkPages refuses the -pages values the build cannot even be asked
// for: the pool is 4x the pages, and the allocator needs at least 4 pages
// (it starts a quarter of the way in), at most math.MaxUint32 (PPNs are
// 32 bits) and, with -huge, at least one 2MB frame.
func checkPages(pages uint64, huge bool) error {
	switch {
	case pages == 0:
		return errors.New("-pages must be at least 1")
	case pages > math.MaxUint32/4:
		return fmt.Errorf("-pages %d makes a pool past %d pages, the 32-bit PPN limit", pages, uint64(math.MaxUint32))
	case huge && pages*4 < pagetable.EntriesPer:
		return fmt.Errorf("-huge -pages %d makes a pool of %d pages, smaller than one 2MB frame (%d pages)",
			pages, pages*4, pagetable.EntriesPer)
	}
	return nil
}

// build builds the address space, returning the allocator's refusal of a
// pool it cannot map the pages in (a "pagetable: " panic) as an error.
func build(pages uint64, cfg pagetable.OSConfig) (as *pagetable.AddressSpace, err error) {
	defer func() {
		if v := recover(); v != nil {
			msg, ok := v.(string)
			if !ok || !strings.HasPrefix(msg, "pagetable: ") {
				panic(v) //tmcclint:allow panic-prefix (re-raises a panic that is not the allocator's refusal)
			}
			err = fmt.Errorf("-pages %d: %s", pages, msg)
		}
	}()
	return pagetable.BuildAddressSpace(pages, pages*4, cfg), nil
}

// scan runs the experiment and writes the report; split from main so the
// smoke test can drive it. It writes nothing for a -pages value the build
// cannot serve and returns why.
func scan(w io.Writer, pages uint64, seed int64, huge bool) error {
	if err := checkPages(pages, huge); err != nil {
		return err
	}
	cfg := pagetable.DefaultOSConfig(seed)
	cfg.HugePages = huge
	as, err := build(pages, cfg)
	if err != nil {
		return err
	}

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
	return nil
}
