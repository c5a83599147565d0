package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"tmcc/internal/cache"
	"tmcc/internal/check"
	"tmcc/internal/config"
	"tmcc/internal/ctecache"
	"tmcc/internal/fastdiv"
	"tmcc/internal/fault"
	"tmcc/internal/freelist"
	"tmcc/internal/ibmdeflate"
	"tmcc/internal/mc"
	"tmcc/internal/memdeflate"
	"tmcc/internal/obs"
	"tmcc/internal/pagetable"
	"tmcc/internal/ptbcomp"
	"tmcc/internal/ras"
	"tmcc/internal/tlb"
	"tmcc/internal/workload"
)

// Plan describes the capacity layout the planner derived for a run.
type Plan struct {
	FootprintPages uint64
	BudgetPages    uint64 // DRAM frames the design uses
	OSPages        uint64
	ML1Pages       uint64 // pages initially resident uncompressed
	ML2Pages       uint64 // pages initially compressed
}

// CompressoBudgetPages computes Compresso's natural DRAM usage for a
// benchmark: block-compressed pages in 512B chunks plus the 64B-per-page
// metadata table over the OS physical space (Table IV column B).
func CompressoBudgetPages(footprint uint64, sizes *workload.SizeModel) uint64 {
	return compressoBudget(footprint, sizes.MeanCompressoPageBytes())
}

// compressoBudget is CompressoBudgetPages for a mean block-compressed page
// of meanBytes, at most config.PageSize: the budget is largest for an
// incompressible footprint.
func compressoBudget(footprint uint64, meanBytes float64) uint64 {
	data := uint64(float64(footprint)*meanBytes/config.PageSize) + 1
	// OS physical space is 4x the budget; solve usage = data + os*64/4096
	// with os = 4*usage: usage = data / (1 - 4*64/4096).
	usage := float64(data) / (1 - 4*config.BlockSize/float64(config.PageSize))
	return uint64(usage) + 1
}

// ErrGeometry reports a structure the model cannot build: a cache with no
// whole set or more than cache.MaxWays ways per set, a TLB whose entries
// do not fill whole sets or whose sets are wider than that, no core, issue
// slot, miss register, DRAM channel, rank, bank, row byte or memory
// controller, a DRAM burst or CPU cycle shorter than 1 ps, an OS physical
// space smaller than DRAM, an interleave of zero bytes across several
// channels or controllers, no migration buffer entry or MC queue slot on a
// design that migrates pages, a CTE Buffer outside 1..MaxBufferEntries, or
// a budget whose frames or OS pool outnumber the controller's 32-bit frame
// numbers and PPNs (mc.MaxPages). NewRunnerFull returns it (wrapped, naming
// the structure) before building anything.
var ErrGeometry = errors.New("degenerate geometry")

// checkGeometry rejects with ErrGeometry any cache the run would build
// with fewer than one set or more than cache.MaxWays ways per set, a TLB
// with no set, a partial one or one that wide, any count the run divides
// by or indexes into that is below one, a CTE Buffer size NewBuffer
// refuses on a run that builds one (embed), and a budget or OS pool past
// mc.MaxPages on any kind. The MC's victim shadow has L3's size and 16
// ways, so the L3 row covers it.
func checkGeometry(opt Options, sys config.System, embed bool) error {
	cte := mc.CTECacheConfig(opt.Kind, sys, opt.CTEOverride)
	for _, c := range []struct {
		name       string
		size, ways int
		built      bool
	}{
		{"L1", sys.Cache.L1SizeKB * config.KiB / 2, sys.Cache.Assoc, true},
		{"L2", sys.Cache.L2SizeKB * config.KiB, sys.Cache.Assoc, true},
		{"L3", sys.Cache.L3SizeMB * config.MiB, sys.Cache.Assoc * 2, true},
		{"CTE cache", cte.SizeKB * config.KiB, cte.Assoc, opt.Kind != mc.Uncompressed},
	} {
		if !c.built {
			continue
		}
		if cache.Sets(c.size, c.ways) < 1 {
			return fmt.Errorf("sim: %s/%s: %w: %s of %d B, %d-way, has no set",
				opt.Benchmark, opt.Kind, ErrGeometry, c.name, c.size, c.ways)
		}
		if w := cache.Ways(c.size, c.ways); w > cache.MaxWays {
			return fmt.Errorf("sim: %s/%s: %w: %s of %d B has %d ways per set, at most %d",
				opt.Benchmark, opt.Kind, ErrGeometry, c.name, c.size, w, cache.MaxWays)
		}
	}
	if cpu := sys.CPU; cpu.TLBAssoc < 1 || cpu.TLBEntries < 1 || cpu.TLBEntries%cpu.TLBAssoc != 0 {
		return fmt.Errorf("sim: %s/%s: %w: TLB of %d entries, %d-way, is not whole sets",
			opt.Benchmark, opt.Kind, ErrGeometry, cpu.TLBEntries, cpu.TLBAssoc)
	}
	if w := cache.Ways(sys.CPU.TLBEntries*config.BlockSize, sys.CPU.TLBAssoc); w > cache.MaxWays {
		return fmt.Errorf("sim: %s/%s: %w: TLB has %d ways per set, at most %d",
			opt.Benchmark, opt.Kind, ErrGeometry, w, cache.MaxWays)
	}
	if f := sys.CPU.FreqGHz; !(f > 0 && f <= 1000) {
		return fmt.Errorf("sim: %s/%s: %w: a %g GHz clock has no cycle of at least 1 ps",
			opt.Benchmark, opt.Kind, ErrGeometry, f)
	}
	d := sys.DRAM
	twoLevel := opt.Kind == mc.TMCC || opt.Kind == mc.OSInspired
	for _, f := range []struct {
		name  string
		n     int
		built bool
	}{
		{"cores", sys.CPU.Cores, true},
		{"issue slots per core", sys.CPU.Width, true},
		{"miss registers per core", sys.CPU.MaxMisses, true},
		{"memory controllers", d.MCs, true},
		{"DRAM channels per controller", d.Channels, true},
		{"ranks per channel", d.RanksPerChan, true},
		{"banks per rank", d.BanksPerRank, true},
		{"bytes per DRAM row", d.RowBytes, true},
		{"ps of DRAM burst", int(d.TBL), true},
		{"OS physical pages per DRAM page", sys.Comp.OSExpansion, true},
		{"bytes of inter-controller interleave", d.MCInterleaveBytes, d.MCs > 1},
		{"bytes of channel interleave", d.ChannelInterleaveBytes, d.Channels > 1},
		{"migration buffer pages", sys.Comp.MigrationBufPages, twoLevel},
		{"MC queue slots for page streams", sys.Comp.MaxQueueSlots, twoLevel},
	} {
		if f.built && f.n < 1 {
			return fmt.Errorf("sim: %s/%s: %w: %d %s", opt.Benchmark, opt.Kind, ErrGeometry, f.n, f.name)
		}
	}
	if n := sys.Comp.CTEBufEntries; embed && (n < 1 || n > ctecache.MaxBufferEntries) {
		return fmt.Errorf("sim: %s/%s: %w: CTE Buffer of %d entries, want 1..%d",
			opt.Benchmark, opt.Kind, ErrGeometry, n, ctecache.MaxBufferEntries)
	}
	// Every PPN of the OS pool must fit the 32-bit dense translation
	// tables and page records, whatever the kind, and a compressed
	// controller numbers the budget's frames plus its overflow region.
	// Uncompressed sizes its budget from the footprint; a budget derived
	// from the size model is at most Compresso's for an incompressible
	// footprint.
	spec, _ := workload.SpecFor(opt.Benchmark)
	b, x := opt.BudgetPages, sys.Comp.OSExpansion
	switch {
	case opt.Kind == mc.Uncompressed:
		b = uncompressedBudget(spec.FootprintPages)
	case b == 0:
		b = compressoBudget(spec.FootprintPages, config.PageSize)
	}
	if b > mc.MaxPages/uint64(x) || osPoolPages(spec.FootprintPages, b, x, opt.Virtualized) > mc.MaxPages ||
		opt.Kind != mc.Uncompressed && mc.Frames(b) > mc.MaxPages {
		return fmt.Errorf("sim: %s/%s: %w: a budget of %d frames at %dx OS expansion numbers more than %d frames or OS pages",
			opt.Benchmark, opt.Kind, ErrGeometry, b, x, uint64(mc.MaxPages))
	}
	return nil
}

// uncompressedBudget is the DRAM Uncompressed holds a footprint in: the
// pages themselves plus a little slack.
func uncompressedBudget(footprint uint64) uint64 { return footprint + footprint/256 + 64 }

// osPoolPages sizes the OS physical pool: osExpansion pages per budget
// frame, but always room for the footprint and its page tables, and under
// virtualization for every guest-physical page the host maps.
func osPoolPages(footprint, budget uint64, osExpansion int, virtualized bool) uint64 {
	pool := max(budget*uint64(osExpansion), footprint+footprint/64+1024) //tmcclint:allow magic-literal (table-page slack heuristic)
	if virtualized {
		pool = max(pool, footprint+footprint/32+4096) //tmcclint:allow magic-literal (slack pages, not the page size)
	}
	return pool
}

// NewRunner builds a complete simulated system for the options, with no
// per-run hooks armed.
func NewRunner(opt Options) (*Runner, error) { return NewRunnerFull(opt, nil, nil, ras.Config{}) }

// NewRunnerFull builds the system with its per-run hooks: an observer, a
// fault injector, and the RAS reliability policies. The hooks
// deliberately live outside Options: Options is the experiment engine's
// memoization key, and one process runs one observer, fault plan, and
// policy. A nil observer, a nil injector, and the zero RAS config each
// leave their hook sites on the disarmed branch, so the run is exactly
// NewRunner's.
func NewRunnerFull(opt Options, ob *obs.Observer, inj *fault.Injector, rcfg ras.Config) (*Runner, error) {
	spec, ok := workload.SpecFor(opt.Benchmark)
	if !ok {
		return nil, fmt.Errorf("sim: unknown benchmark %q", opt.Benchmark)
	}
	sys := opt.Sys
	if sys == (config.System{}) {
		sys = config.Default()
	}
	// OS-inspired is TMCC with both of its optimizations off (Figure 20),
	// and every difference between the two reads one of these switches.
	// embed is the ML1 one, PTB-embedded CTEs: a huge-page PTB covers 16MB,
	// too much to embed (Section VIII). fastML2 is the ML2 one: the
	// measured fast Deflate, not the IBM analytic model.
	embed := opt.Kind == mc.TMCC && !opt.DisableEmbed && !opt.HugePages
	fastML2 := opt.Kind == mc.TMCC
	if err := checkGeometry(opt, sys, embed); err != nil {
		return nil, err
	}
	// The size model is memoized process-wide, so it observes the shared
	// sinks: its build counters stay lifetime-only (like engine.*) instead
	// of landing in the timeline of whichever run builds it first.
	sizes, err := workload.NewSizeModelObserved(opt.Benchmark, 256, opt.Seed, memdeflate.DefaultParams(), ob)
	if err != nil {
		return nil, err
	}
	// Shadow ob with the run view's derived observer: the components
	// register their counts with its view, record their histograms and
	// attribution into its private sinks, and reach the heatmap through
	// ob.View(). Every exit below closes the view, so even a failed build
	// folds what it counted into the shared registry.
	view := ob.RunView(opt.Benchmark, opt.Kind.String())
	if view != nil {
		ob = view.Observer()
	}
	inj.Observe(view)

	budget := opt.BudgetPages
	if budget == 0 {
		budget = CompressoBudgetPages(spec.FootprintPages, sizes)
	}
	if opt.Kind == mc.Uncompressed {
		budget = uncompressedBudget(spec.FootprintPages)
	}
	osPages := osPoolPages(spec.FootprintPages, budget, sys.Comp.OSExpansion, opt.Virtualized)

	// Build the address space (data pages + the page table itself).
	osCfg := pagetable.DefaultOSConfig(opt.Seed)
	osCfg.HugePages = opt.HugePages
	var as *pagetable.AddressSpace
	if !opt.Virtualized {
		as = nativeAddressSpace(spec.FootprintPages, osPages, osCfg)
	}
	half, comp := opt.ML2HalfPage, opt.ML2Compress
	if half == 0 {
		if fastML2 {
			half = config.Time(sizes.MeanHalfPagePS)
			comp = config.Time(sizes.MeanCompressPS)
		} else {
			m := ibmdeflate.Default()
			m.Register(ob)
			half = m.HalfPageLatency(config.PageSize)
			comp = m.CompressLatency(config.PageSize)
		}
	}

	mcc, err := mc.New(mc.Config{
		Kind:         opt.Kind,
		Sys:          sys,
		BudgetPages:  budget,
		OSPages:      osPages,
		Sizes:        sizes,
		ML2HalfPage:  half,
		ML2Compress:  comp,
		Seed:         opt.Seed,
		CTEOverride:  opt.CTEOverride,
		VictimShadow: opt.VictimShadow,
		Obs:          ob,
		Inject:       inj,
		RAS:          rcfg,
	})
	if err != nil {
		view.Close()
		return nil, fmt.Errorf("sim: %s/%s: %w", opt.Benchmark, opt.Kind, err)
	}

	r := &Runner{
		opt:   opt,
		sys:   sys,
		spec:  spec,
		as:    as,
		sizes: sizes,
		mcc:   mcc,
		embed: embed,
		inj:   inj,
		view:  view,
		l3:    cache.New(sys.Cache.L3SizeMB*config.MiB, sys.Cache.Assoc*2),
		rng:   rand.New(rand.NewSource(opt.Seed + 77)),
		cycle: sys.CPU.Cycle(),
		noc:   sys.DRAM.NoCLatency,
		width: fastdiv.New(uint64(sys.CPU.Width)),
	}
	r.pcfg = ptbcomp.NewConfig(osPages*config.PageSize, uint64(sys.Comp.DRAMPerMCTB)<<40)

	if opt.Virtualized {
		buildVirt(r, osPages, opt.Seed) // fills vpnToPPN/gpaToHost
	} else {
		r.vlo, r.vpnToPPN = as.VBase, as.PPNs
	}
	// Per-PTB hardware state of an embedding run, flat over the (now
	// final) table's PTB slots.
	if r.embed {
		r.ptbs = make([]ptbState, r.as.Table.PTBSlots())
	}
	if rcfg.ScrubPages > 0 && r.embed {
		// Arm the RAS layer's embedded-CTE patrol: a bounded round-robin
		// sweep over the PTB slots each policy window, refreshing stale
		// embedded CTEs before a demand access mis-speculates on them. The
		// patrol-only policy state supplies the window clock, the per-window
		// quota, and the seeded cursor, like the MC-side patrol's.
		r.rasCTE = ras.New(ras.Config{ScrubPages: rcfg.ScrubPages, WindowPS: rcfg.WindowPS}, len(r.ptbs), opt.Seed)
	}
	// The reusable hot-loop scratch (see Runner field docs).
	r.walkBuf = make([]pagetable.Step, 0, pagetable.Levels)
	r.gwalkBuf = make([]pagetable.Step, 0, pagetable.Levels)
	r.pfBuf = make([]uint64, 0, 1+sys.Cache.StrideDegreeL2)
	r.heap = make([]*core, 0, sys.CPU.Cores)
	vbase := r.traceVBase()
	for i := 0; i < sys.CPU.Cores; i++ {
		c := &core{
			id:       i,
			trace:    workload.NewTrace(spec, vbase, opt.Seed+int64(i)*101),
			tlb:      tlb.New(sys.CPU.TLBEntries, sys.CPU.TLBAssoc),
			wc:       tlb.NewWalkCache(sys.CPU.WalkCacheKB * config.KiB),
			l1:       cache.New(sys.Cache.L1SizeKB*config.KiB/2, sys.Cache.Assoc),
			l2:       cache.New(sys.Cache.L2SizeKB*config.KiB, sys.Cache.Assoc),
			gwc:      tlb.New(512, 8),
			mshr:     make([]config.Time, sys.CPU.MaxMisses),
			stride:   cache.NewStride(sys.Cache.StrideDegreeL2),
			throttle: cache.NewThrottle(256),
		}
		if embed {
			c.buf = ctecache.NewBuffer(sys.Comp.CTEBufEntries)
		}
		r.cores = append(r.cores, c)
	}

	if err := r.place(); err != nil {
		view.Close()
		return nil, fmt.Errorf("sim: %s/%s placement: %w", opt.Benchmark, opt.Kind, err)
	}
	// Placement-time capacity exhaustion surfaces here, before any
	// simulated time elapses — the run could not even be laid out.
	if err := mcc.Err(); err != nil {
		view.Close()
		return nil, fmt.Errorf("sim: %s/%s placement: %w", opt.Benchmark, opt.Kind, err)
	}
	// Drive background eviction to steady state before any simulated time
	// elapses (the paper's long atomic warmup does the same).
	mcc.Settle()
	if r.embed {
		r.warmEmbeddings()
	}
	r.observe(ob)
	if ob != nil {
		// Placement is atomic (no simulated time elapses); record its
		// outcome as gauges and mark it in the trace as a zero-length
		// phase at t=0.
		ob.Gauge("sim.placement.budgetPages").Set(int64(budget))
		ob.Gauge("sim.placement.osPages").Set(int64(osPages))
		ob.Gauge("sim.placement.ml1Pages").Set(int64(mcc.ML1Pages()))
		ob.Gauge("sim.placement.usedPages").Set(int64(mcc.UsedPages()))
		ob.Span(obs.CatPhase, "placement", 0, 0, 0)
	}
	return r, nil
}

// warmEmbeddings mirrors the paper's warmup phase, which explicitly warms
// "ML1, ML2, and embedded CTEs in compressed PTBs" with at least a second
// of atomic simulation: every compressible PTB gets the current truncated
// CTEs of the pages it points to. Only PTBs with a present PTE get state:
// the RAS patrol charges simulated time per initialised PTB it visits.
func (r *Runner) warmEmbeddings() {
	for slot := range r.ptbs {
		ptes := r.as.Table.PTBAt(slot)
		if !anyPresent(ptes) {
			continue
		}
		st := r.ptbState(slot)
		if !st.compressible {
			continue
		}
		r.reembed(st, ptes, false)
		if check.Enabled {
			check.Invariant("sim: warmed PTB fits 64B", func() error { return r.pcfg.Fit(ptes, &st.Slots) })
		}
	}
}

// anyPresent reports whether any of a PTB's eight PTEs is present.
func anyPresent(ptes *[pagetable.PTEsPerPTB]uint64) bool {
	for _, pte := range ptes {
		if pte&pagetable.FlagPresent != 0 {
			return true
		}
	}
	return false
}

// place performs the warmup placement: compress and pack content into the
// budget, hottest pages resident in ML1 (Section VI: "fetch all of the
// benchmark's memory values to place, compress, and pack them into
// available memory"). Native flat designs place the data pages in vpn
// order and leave the table pages to first touch; every other system
// goes through placeHotFirst.
func (r *Runner) place() error {
	if r.guest != nil {
		lo, hi := r.guest.VPNRange()
		return r.placeHotFirst(lo, hi-lo, r.virtTablePPNs())
	}
	lo, hi := r.as.VPNRange()
	if r.opt.Kind == mc.Uncompressed || r.opt.Kind == mc.Compresso {
		for vpn := lo; vpn < hi; vpn++ {
			if ppn := translate(r.vpnToPPN, r.vlo, vpn); ppn != unmappedPPN {
				r.mcc.Place(ppn, false)
			}
		}
		return nil
	}
	return r.placeHotFirst(lo, hi-lo, r.as.Table.TablePagePPNs())
}

// placeHotFirst places the footprint's data pages hottest-first, the
// first planML1 of them in ML1 and the rest compressed, then the table
// pages, which are hot (every walk touches them): resident in ML1 from
// the start, so no placement churn pollutes the measured window. It then
// seeds the Recency List coldest-to-hottest so warmup evictions take
// genuinely cold pages, not the hot set; table pages go last (hottest).
func (r *Runner) placeHotFirst(lo, footprint uint64, tablePPNs []uint64) error {
	ml1Pages, err := r.planML1(footprint)
	if err != nil {
		return err
	}
	order := r.placementOrder(lo, footprint)
	for i, vpn := range order {
		if ppn := translate(r.vpnToPPN, r.vlo, vpn); ppn != unmappedPPN {
			r.mcc.Place(ppn, uint64(i) >= ml1Pages)
		}
	}
	for _, ppn := range tablePPNs {
		r.mcc.Place(ppn, false)
	}
	for i := len(order) - 1; i >= 0; i-- {
		if ppn := translate(r.vpnToPPN, r.vlo, order[i]); ppn != unmappedPPN {
			r.mcc.TouchPage(ppn)
		}
	}
	for _, ppn := range tablePPNs {
		r.mcc.TouchPage(ppn)
	}
	return nil
}

// planML1 computes how many pages fit uncompressed in ML1 under the
// budget: the per-page ML2 cost uses the real size-class menu (class
// rounding costs ~9%), plus a small allowance for partially-filled
// super-chunks.
func (r *Runner) planML1(footprint uint64) (uint64, error) {
	classes := freelist.DefaultClasses()
	classFor := func(size int) (int, bool) {
		for _, c := range classes {
			if c.SubSize >= size {
				return c.SubSize, true
			}
		}
		return 0, false
	}
	ratio := r.sizes.MeanML2ChunkFraction(classFor) * 1.02
	tableReserve := uint64(r.as.Table.TablePages()) + 16
	freeReserve := uint64(r.mcc.LowMark()) + 64
	avail := int64(r.mcc.ChunkPool()) - int64(tableReserve) - int64(freeReserve)
	ml1 := (float64(avail) - float64(footprint)*ratio) / (1 - ratio)
	if ml1 < 0 {
		return 0, fmt.Errorf("budget cannot hold footprint %d even fully compressed: %w",
			footprint, mc.ErrCapacityExhausted)
	}
	ml1Pages := uint64(ml1)
	if ml1Pages > footprint {
		ml1Pages = footprint
	}
	return ml1Pages, nil
}

// placementOrder lists the footprint's virtual pages hottest-first: the
// trace's hot clusters, then the leading (warm) remainder. Dedup rides in
// a dense offset-indexed bitmap (the vpns span exactly [lo, lo+footprint)).
func (r *Runner) placementOrder(lo, footprint uint64) []uint64 {
	placed := make([]bool, footprint)
	order := make([]uint64, 0, footprint)
	const cluster = 8
	nClusters := r.spec.HotPages / cluster
	if nClusters == 0 {
		nClusters = 1
	}
	stride := footprint / nClusters
	if stride < cluster {
		stride = cluster
	}
	for c := uint64(0); c < nClusters; c++ {
		for j := uint64(0); j < cluster; j++ {
			off := (c*stride + j) % footprint
			if !placed[off] {
				placed[off] = true
				order = append(order, lo+off)
			}
		}
	}
	for off := uint64(0); off < footprint; off++ {
		if !placed[off] {
			order = append(order, lo+off)
		}
	}
	return order
}

// traceVBase is the first guest-virtual page the traces touch.
func (r *Runner) traceVBase() uint64 {
	if r.guest != nil {
		return r.guest.VBase
	}
	return r.as.VBase
}

// CompressoBudget exposes the planner's Compresso-usage computation for a
// benchmark (Table IV column B), in 4KB frames.
func CompressoBudget(benchmark string, seed int64) uint64 {
	spec, ok := workload.SpecFor(benchmark)
	if !ok {
		return 0
	}
	sizes, err := workload.NewSizeModel(benchmark, 256, seed, memdeflate.DefaultParams())
	if err != nil {
		return 0
	}
	return CompressoBudgetPages(spec.FootprintPages, sizes)
}
