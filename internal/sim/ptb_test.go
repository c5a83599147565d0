package sim

import (
	"testing"

	"tmcc/internal/mc"
)

// TestEmbeddedPTBsFit checks the PTBs a TMCC run actually embedded into,
// not synthetic ones: after a quick run, every initialised compressible
// PTB state must pack with its table PTEs into 64B through ptbcomp and
// unpack to the same status bits, PPNs and filled CTE slots. Runs that
// do not embed must build no PTB state at all.
func TestEmbeddedPTBsFit(t *testing.T) {
	for _, virt := range []bool{false, true} {
		r, err := NewRunner(Options{Benchmark: "canneal", Kind: mc.TMCC, Virtualized: virt,
			WarmupAccesses: 20000, MeasureAccesses: 20000, Seed: 42})
		if err != nil {
			t.Fatalf("virtualized=%v: NewRunner: %v", virt, err)
		}
		mustRun(t, r)
		ptbs, filled := 0, 0
		for slot := range r.ptbs {
			st := &r.ptbs[slot]
			if !st.init || !st.compressible {
				continue
			}
			if err := r.pcfg.Fit(r.as.Table.PTBAt(slot), &st.Slots); err != nil {
				t.Fatalf("virtualized=%v: PTB slot %d: %v", virt, slot, err)
			}
			ptbs++
			for _, has := range st.HasCTE {
				if has {
					filled++
				}
			}
		}
		if ptbs == 0 || filled == 0 {
			t.Fatalf("virtualized=%v: %d compressible PTBs with %d filled CTE slots; the check saw nothing", virt, ptbs, filled)
		}
		t.Logf("virtualized=%v: %d compressible PTBs fit with %d embedded CTEs", virt, ptbs, filled)
	}

	// Only a run that embeds CTEs allocates per-PTB state: the other
	// designs, and TMCC with embedding turned off or forced off by huge
	// pages, build none and still run.
	for _, opt := range []Options{
		{Kind: mc.Uncompressed},
		{Kind: mc.Compresso},
		{Kind: mc.OSInspired},
		{Kind: mc.TMCC, DisableEmbed: true},
		{Kind: mc.TMCC, HugePages: true},
	} {
		opt.Benchmark, opt.Seed = "canneal", 42
		opt.WarmupAccesses, opt.MeasureAccesses = 2000, 2000
		r, err := NewRunner(opt)
		if err != nil {
			t.Fatalf("%+v: NewRunner: %v", opt, err)
		}
		mustRun(t, r)
		if r.ptbs != nil || r.embed {
			t.Errorf("%v (DisableEmbed=%v, HugePages=%v): %d PTB states, embed=%v; want none",
				opt.Kind, opt.DisableEmbed, opt.HugePages, len(r.ptbs), r.embed)
		}
	}
}
