// Package sim is the end-to-end system simulator (Section VI methodology):
// trace-driven cores with a bounded outstanding-miss window, per-core TLB
// and page-walk cache, per-core L1/L2 (L2 inclusive), a shared exclusive
// L3, and one of the package mc memory-controller designs behind the NoC.
// TMCC's L2-side machinery — the per-core CTE Buffer and the compressed
// PTBs with embedded CTEs — lives here, because that is where the paper
// puts it (Figures 9-11).
//
// A run has three phases, mirroring the paper: placement (content is
// compressed and packed into the DRAM budget, hottest pages in ML1), warmup
// (caches, TLBs, CTE structures and embedded CTEs are exercised with
// timing but without recording), and measurement.
package sim

import (
	"math/rand"

	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/ctecache"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/pagetable"
	"tmcc/internal/ptbcomp"
	"tmcc/internal/ras"
	"tmcc/internal/tlb"
	"tmcc/internal/workload"
)

// Options configures one run.
type Options struct {
	Benchmark string
	Kind      mc.Kind
	// Sys is the simulated system; the zero System means config.Default().
	Sys config.System
	// BudgetPages is the DRAM budget in frames; 0 means "Compresso's
	// natural usage" computed by the planner.
	BudgetPages uint64
	// ML2HalfPage / ML2Compress override the ML2 codec timing; zero means
	// pick by design (fast Deflate for TMCC, IBM-class for OSInspired).
	ML2HalfPage config.Time
	ML2Compress config.Time
	// WarmupAccesses / MeasureAccesses are per-run totals across cores.
	WarmupAccesses  int
	MeasureAccesses int
	Seed            int64
	HugePages       bool
	// DisableEmbed turns off TMCC's ML1 optimization (for the Figure 20
	// ablation) while keeping the fast ML2 Deflate.
	DisableEmbed bool
	// CTEOverride / VictimShadow configure the Section III problem-study
	// variants (Figures 1-2).
	CTEOverride  *config.CTECacheCfg
	VictimShadow bool
	// Virtualized runs the benchmark inside a VM: guest-virtual addresses
	// translate through a guest page table to guest-physical and through a
	// host page table to host-physical; TLB misses trigger 2D page walks
	// (Figure 12b).
	Virtualized bool
}

// Metrics is what a run reports.
type Metrics struct {
	Elapsed      config.Time
	Cycles       uint64
	Instructions uint64
	Stores       uint64
	MemAccesses  uint64

	TLBMisses  uint64
	LLCMisses  uint64 // demand + walker L3 misses
	Walks      uint64
	WalkRefs   uint64 // PTB fetches issued
	Writebacks uint64

	L3MissLatencySum config.Time // demand-read L3 miss service time incl. NoC
	SlowMisses       uint64      // misses slower than 500ns
	SlowMissSum      config.Time
	SlowMax          config.Time
	SlowML2          uint64
	SlowPTB          uint64
	// LatHist buckets L3 miss latencies: <60, <80, <120, <200, <500,
	// >=500 ns — the distribution behind Figure 18's averages.
	LatHist [6]uint64

	MC   mc.Stats
	Used uint64 // DRAM frames in use at end

	DRAMReads, DRAMWrites uint64
	BusUtilization        float64
	RowHitRate            float64
}

// IPC returns instructions per cycle.
func (m Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// StoresPerCycle is the paper's performance metric.
func (m Metrics) StoresPerCycle() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Stores) / float64(m.Cycles)
}

// LatHistBounds labels the LatHist buckets (upper bounds in ns; the last
// bucket is unbounded).
var LatHistBounds = [6]int{60, 80, 120, 200, 500, 1 << 30}

// AvgL3MissLatencyNS is Figure 18's metric.
func (m Metrics) AvgL3MissLatencyNS() float64 {
	if m.LLCMisses == 0 {
		return 0
	}
	return float64(m.L3MissLatencySum) / float64(m.LLCMisses) / float64(config.Nanosecond)
}

// ptbState tracks one hardware-compressed PTB and its embedded CTEs: the
// slots hold truncated CTEs taken at embed time, so they go stale when
// pages migrate — exactly the hazard TMCC's verify-in-parallel handles.
// The states live in a flat slice indexed by pagetable.Table.PTBSlot; init
// marks slots whose compressibility has been derived (the walker first
// pulling the PTB through L2).
type ptbState struct {
	init         bool
	compressible bool
	ptbcomp.Slots
}

// batchSize is the per-core access batch: the producer goroutine
// generates and translates trace records batchSize at a time, ringDepth
// batches per core ahead of timing, and the sticky capacity-error check in
// runAccesses happens once per batch.
const batchSize = 64

// unmappedPPN is the dense translation tables' "no mapping" sentinel.
const unmappedPPN = ^uint64(0)

// accessBatch is a struct-of-arrays block of pre-generated, pre-translated
// trace records. The producer fills it off the timing goroutine: that is
// safe because each core's trace is private (streams never interleave
// across cores) and vpnToPPN is frozen after build; only the timing loop
// consumes simulated time. A batch belongs to one core for life; the
// producer owns it from a hand-back on free until it arrives on the core's
// full channel, the timing goroutine from then on.
type accessBatch struct {
	vaddr [batchSize]uint64
	ppn   [batchSize]uint64 // data PPN, unmappedPPN when unmapped
	gap   [batchSize]int32
	write [batchSize]bool
	dep   [batchSize]bool
	pos   int // next record to consume; batchSize when used
	core  int // owning core id
}

type core struct {
	id    int
	time  config.Time
	trace *workload.Trace // handed to the producer when it starts
	tlb   *tlb.TLB
	wc    *tlb.WalkCache
	gwc   *tlb.TLB // nested (gpa) walk cache under virtualization
	l1    *cache.Cache
	l2    *cache.Cache
	buf   *ctecache.Buffer // nil unless the MC is TMCC
	mshr  []config.Time    // outstanding-miss completion times
	next  int              // ring index
	dep   config.Time      // completion of the last dependent access
	batch *accessBatch     // being consumed; nil until the producer starts
	// prefetch
	stride   *cache.StridePrefetcher
	throttle *cache.Throttle
}

// before orders cores for the issue heap: earliest clock first, core id
// breaking ties — exactly the pick of a linear lowest-index-min scan.
func (c *core) before(o *core) bool {
	return c.time < o.time || (c.time == o.time && c.id < o.id)
}

// Runner owns one configured system.
type Runner struct {
	opt   Options
	sys   config.System
	spec  workload.Spec
	as    *pagetable.AddressSpace
	sizes *workload.SizeModel
	// Virtualization state (nil when not virtualized): the guest address
	// space, plus dense functional translation tables filled at build time
	// (gpn-indexed and vpn-indexed, unmappedPPN where unmapped).
	guest     *pagetable.AddressSpace
	gpaToHost []uint64
	mcc       *mc.MC
	l3        *cache.Cache
	// embed is TMCC's ML1 optimization gate (TMCC without DisableEmbed,
	// which huge pages force); ptbs is nil unless it is set.
	embed bool
	ptbs  []ptbState
	pcfg  ptbcomp.Config
	rng   *rand.Rand

	// vpnToPPN maps trace virtual pages (offset by vlo) to the physical
	// page the MC sees — host-physical under virtualization. One bounds
	// check and one load replace the per-access radix walk / map probes.
	// A native runner shares it (and as) with the other runners built from
	// the same inputs (nativeAddressSpace), and the producer goroutine
	// reads it unlocked, so it is read-only after build.
	vpnToPPN []uint64
	vlo      uint64

	cores []*core
	// feed connects the timing loop to the producer goroutine that fills
	// the cores' batches; nil until the first runAccesses starts it.
	feed *feed
	// heap is the issue order: a binary min-heap over the cores by
	// (time, id), rebuilt at the start of each runAccesses.
	heap []*core

	cycle config.Time
	noc   config.Time

	// Reusable per-Runner scratch keeping the measured loop allocation
	// free (verified by TestAccessPathAllocFree): page-walk step buffers
	// (host and guest — walk2D holds guest steps across nested host
	// walks), prefetch candidates, and the embedded-CTE copy handed to
	// the MC.
	walkBuf    []pagetable.Step
	gwalkBuf   []pagetable.Step
	pfBuf      []uint64
	embScratch cte.Entry

	m         Metrics
	recording bool
	// The event-driven instruments, nil when unobserved: the span sink
	// and the demand L3 miss service latency histogram, in ns. The run's
	// counts live in m and the CTE Buffers, sampled by the run view.
	tr        *obs.Tracer
	missLatNS *obs.Histogram

	// The per-run hooks, each nil when disarmed (one branch per site):
	//   - view, the run view (counts, timeline and heatmap): advanced at
	//     every batch edge, stamped with per-page heat while recording,
	//     its residency swept by the MC at heatmap edges, rebased at the
	//     end of warmup, closed by Run;
	//   - inj, the fault injector: the simulator owns the embedded-CTE
	//     fault site, the MC the payload and DRAM sites;
	//   - rasCTE, the RAS embedded-CTE patrol's policy state (TMCC with
	//     embedding and scrubbing only): see patrolCTE.
	view   *obs.RunView
	inj    *fault.Injector
	rasCTE *ras.State

	// ag is the latency-attribution sink for this run's (benchmark,
	// kind); nil when attribution is off. attrWalk carries the most
	// recent page-walk duration from step to the demand access that
	// triggered it, so the walk lands inside that access's breakdown.
	ag       *attr.Group
	attrWalk config.Time
}

// observe registers the runner's instruments and counts under "sim.".
// Shared paths aggregate across runs observed with the same registry.
// The sim.* counts read Metrics fields that advance only while recording,
// so each covers the measured windows alone, unlike the lifetime mc.*
// counters; sim.ctebuf.* sums the per-core CTE Buffers' lifetime Lookup
// outcomes, warmup included.
func (r *Runner) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	bounds := make([]int64, len(LatHistBounds)-1)
	for i := range bounds {
		bounds[i] = int64(LatHistBounds[i])
	}
	r.tr = o.Tr
	r.missLatNS = o.Histogram("sim.l3.missLatencyNS", bounds)
	v := o.View()
	v.Count("sim.tlb.miss", &r.m.TLBMisses)
	v.Count("sim.walk.count", &r.m.Walks)
	v.Count("sim.walk.refs", &r.m.WalkRefs)
	v.Count("sim.l3.miss", &r.m.LLCMisses)
	v.Count("sim.l3.writeback", &r.m.Writebacks)
	bufs := func(n func(*ctecache.Buffer) uint64) func() uint64 {
		return func() (sum uint64) {
			for _, c := range r.cores {
				if c.buf != nil {
					sum += n(c.buf)
				}
			}
			return sum
		}
	}
	v.CountFunc("sim.ctebuf.hit", bufs(func(b *ctecache.Buffer) uint64 { return b.Hits }))
	v.CountFunc("sim.ctebuf.miss", bufs(func(b *ctecache.Buffer) uint64 { return b.Misses }))
	r.ag = o.AttrGroup(r.opt.Benchmark, r.opt.Kind.String())
}
