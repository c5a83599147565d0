// Package mc implements the compared memory-controller designs:
//
//   - Uncompressed: physical addresses map straight to DRAM (Figure 18's
//     "No Compression" baseline).
//   - Compresso (Choukse et al., MICRO 2018; Section II/III): block-level
//     compression for capacity; every 4KB page needs a 64B metadata block
//     (CTE), cached with 4KB reach per block, fetched serially from DRAM in
//     front of the data on a CTE-cache miss.
//   - OSInspired: the bare-bone two-level design of Section IV — page-level
//     CTEs (32KB reach per cached block), hot pages uncompressed in ML1,
//     cold pages Deflate-compressed in ML2, Recency List eviction, ML1/ML2
//     free lists — but without TMCC's optimizations: CTE misses resolve
//     serially and ML2 uses the slow general-purpose Deflate.
//   - TMCC: OSInspired plus (a) speculative parallel data+CTE DRAM access
//     verified against CTEs embedded in compressed PTBs (Section V-A) and
//     (b) the memory-specialized fast Deflate for ML2 (Section V-B).
//
// The controller is execution-driven for addresses and statistics;
// per-page compressed sizes come from the workload's SizeModel, which runs
// the real compressors over the benchmark's synthetic contents.
package mc

import (
	"fmt"
	"math/rand"

	"tmcc/internal/cache"
	"tmcc/internal/check"
	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/ctecache"
	"tmcc/internal/dram"
	"tmcc/internal/fault"
	"tmcc/internal/freelist"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/ras"
	"tmcc/internal/recency"
	"tmcc/internal/workload"
)

// Kind selects the controller design.
type Kind int

// The designs.
const (
	Uncompressed Kind = iota
	Compresso
	OSInspired
	TMCC
)

var kindNames = [...]string{"uncompressed", "compresso", "os-inspired", "tmcc"}

// String names the design.
func (k Kind) String() string { return kindNames[k] }

// Config assembles one controller.
type Config struct {
	Kind Kind
	Sys  config.System
	// BudgetPages is the DRAM the design may use, in 4KB frames. The
	// capacity experiments compare designs at equal budgets.
	BudgetPages uint64
	// OSPages is the OS physical pool size (PPN space; up to 4x budget).
	OSPages uint64
	// Sizes provides per-page compressed sizes; nil only for Uncompressed.
	Sizes *workload.SizeModel
	// ML2 timing: the half-page decompression latency charged on a demand
	// ML2 read and the compressor occupancy charged per eviction.
	ML2HalfPage config.Time
	ML2Compress config.Time
	// Seed drives the recency sampling decisions.
	Seed int64
	// CTEOverride replaces the design's default CTE cache geometry
	// (Section III explores 64KB block-level and 4X variants).
	CTEOverride *config.CTECacheCfg
	// VictimShadow tracks would-be hits of evicted/missed CTEs in an
	// LLC-sized shadow structure (Figure 2's "CTE hits in L3$" line); it
	// is statistics-only — the paper concludes against caching CTEs in
	// the LLC, and so do we.
	VictimShadow bool
	// Obs, when non-nil, emits cycle-domain spans, and its run view
	// samples the controller's counts into lifetime "mc.<kind>." counters
	// (folded in before ResetStats zeroes Stats) that aggregate across MC
	// instances sharing a registry. Write-only: must not affect timing.
	Obs *obs.Observer
	// Inject, when non-nil, arms fault injection on the MC's ML2 payload
	// and DRAM request paths (the embedded-CTE faults live in the
	// simulator, which owns the PTB path). nil keeps every site on its
	// no-fault branch, byte-identical to an un-instrumented build.
	Inject *fault.Injector
	// RAS arms the self-healing reliability policies (page retirement,
	// degraded-mode breaker, background scrubbing). The zero value keeps
	// the layer off — like Inject, RAS lives outside the experiment
	// engine's memoization key and the disabled path is byte-identical.
	RAS ras.Config
}

// AccessTag classifies how an ML1 read was served (Figure 19).
type AccessTag int

// Figure 19 categories.
const (
	TagCTEHit        AccessTag = iota // translation already in CTE cache
	TagParallelOK                     // embedded CTE correct: data and CTE fetched in parallel
	TagParallelWrong                  // embedded CTE stale: re-access after verify
	TagSerial                         // no embedded CTE: serial CTE then data
	TagML2                            // served from ML2 (decompress + migrate)
	TagUncompressed                   // no-compression design
)

// Result reports one demand access.
type Result struct {
	Done config.Time
	Tag  AccessTag
}

// Stats aggregates controller behaviour.
type Stats struct {
	Reads           uint64
	Writes          uint64
	CTEHits         uint64
	CTEMisses       uint64
	CTEFetchesDRAM  uint64
	ParallelOK      uint64
	ParallelWrong   uint64
	SerialNoEmbed   uint64
	ML2Reads        uint64
	ML2ToML1        uint64 // demand migrations
	ML1ToML2        uint64 // evictions
	IncompressSkips uint64
	// CTE misses on requests flagged as walk-related (Figure 5).
	CTEMissWalkRelated uint64
	// CTEVictimHits counts CTE-cache misses that an LLC-sized victim
	// structure would have caught (Figure 2, statistics-only).
	CTEVictimHits uint64
}

// pageState is the controller's per-OS-page record. New allocates one per
// OS page, so it is kept packed at 16 bytes (TestPageStatePacked).
type pageState struct {
	// chunk is the ML1 frame when !inML2. When inML2 it is the ML2
	// super-chunk, and class and slot complete the sub-chunk (sub).
	chunk          uint32
	sum            uint32 // payload checksum while compressed in ML2
	class, slot    uint8
	inML2          bool
	incompressible bool
	placed         bool
	// retired pins the page uncompressed on a frame the RAS scoreboard
	// permanently withdrew from circulation (implies incompressible).
	retired bool
}

// sub is the ML2 sub-chunk an inML2 page's payload occupies.
func (st *pageState) sub() freelist.SubChunk {
	return freelist.SubChunk{Super: st.chunk, Class: st.class, Slot: st.slot}
}

// MC is one memory-side controller instance.
type MC struct {
	cfg  Config
	dram *dram.Controller
	cte  *ctecache.Cache

	pages   []pageState
	ml1     *freelist.ML1
	ml2     *freelist.ML2
	rec     *recency.List
	rng     *rand.Rand
	ml1Size int // pages currently resident in ML1 (for accounting)
	lowMark int // ML1 free-list grow threshold, scaled to the budget
	crit    int

	chunkPool    uint64 // frames available for data
	cteTableBase uint64

	// heat is the run view Obs carries (nil when unobserved): it samples
	// the controller's counts, and with the heatmap armed the controller
	// stamps migrations, pressure evictions, quarantines, ML2 serves, CTE
	// lookups, compressed sizes and residency against the page they hit.
	// Every stamp site pays one nil check inside the method.
	heat *obs.RunView

	// inj is the armed fault injector (nil in healthy runs); pressure and
	// capErr belong to the graceful-degradation ladder (pressure.go).
	inj      *fault.Injector
	pressure pressureState
	capErr   *CapacityError

	// ras is the self-healing policy state (nil when the layer is off);
	// rasBacklog banks background patrol cycle cost until the next demand
	// access drains it onto the critical path (ras.go).
	ras        *ras.State
	rasBacklog config.Time

	// Migration staging buffer (Section VI): busy-until timestamps (in
	// picoseconds) of the eight 4KB entries; a demand ML2 read stalls
	// while all are busy.
	migBuf []config.Picos

	// Reusable page-stream scratch, so the measured access loop allocates
	// nothing: the queue-slot window and the block addresses of the one
	// stream in flight. Every stream finishes before the next one starts
	// (the evictOne nested in serveML2 runs between its read stream and
	// its write-out), so one of each serves them all. Sized on first use.
	win   []config.Time
	addrs []uint64

	// Figure 2's shadow victim structure (stats only).
	shadow    *cache.Cache
	shadowPPB uint64

	Stats Stats
	tally tally
	// ml1AtMig is ML1's occupancy (resident pages, free chunks) after the
	// last migration, which the ml1.pages and ml1.freeChunks gauges report.
	ml1AtMig [2]int

	// The event-driven instruments, nil when unobserved: the span sink,
	// demand ML2 latency (now -> respond, ps) and the compressed page
	// size at ML2 entry (bytes).
	tr              *obs.Tracer
	ml2DecompressPS *obs.Histogram
	ml2CompBytes    *obs.Histogram

	// ab is the per-access attribution scratch, allocated only when the
	// observer carries an attr.Recorder. Each Access resets and refills
	// it with the memory-side latency components; the simulator reads it
	// back through Attr, folds in walk/NoC time, and records the finished
	// breakdown. nil when attribution is off (one-branch fills).
	ab *attr.Access
}

// tally holds the controller's per-run counts that Stats does not carry.
// Unlike Stats, ResetStats leaves them alone.
type tally struct {
	pressureStallPS   uint64 // picoseconds demand work waited on emergency migrations
	pressureExhausted uint64 // placements the exhausted ladder could not serve
	dramBusy          uint64 // DRAM operations whose first probe found the channel busy

	rasStrikes        uint64 // scoreboard strikes recorded
	rasBreakerOpens   uint64 // breaker open transitions
	rasBreakerCloses  uint64 // breaker re-arm transitions
	rasDegradedWrites uint64 // writes served in writethrough mode
	rasBacklogPS      uint64 // picoseconds of RAS work charged to demand
	rasScrubPages     uint64 // patrol page visits
	rasScrubDetect    uint64 // latent corruptions the patrol caught
	rasScrubCTE       uint64 // PTBs the simulator's CTE patrol examined
	rasScrubRepair    uint64 // stale embedded CTEs refreshed by patrol
}

// observe registers the controller's instruments and counts under
// "mc.<kind>.". The registry get-or-creates by path, so several
// controllers of the same kind (or the same controller rebuilt across
// runs) aggregate into shared lifetime counters. The pressure.*, fault.*
// and ras.* paths exist only for two-level kinds, an armed injector and
// armed RAS respectively.
func (m *MC) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	p := "mc." + m.cfg.Kind.String() + "."
	m.tr = o.Tr
	m.ml2DecompressPS = o.Histogram(p+"ml2.decompressPS", ml2LatencyBoundsPS)
	m.ml2CompBytes = o.Histogram(p+"ml2.compressedBytes", heatmap.SizeBounds())
	if o.At != nil {
		m.ab = new(attr.Access)
	}
	v := m.heat
	count := func(path string, n *uint64) { v.Count(p+path, n) }
	count("reads", &m.Stats.Reads)
	count("writes", &m.Stats.Writes)
	count("cte.fetchDRAM", &m.Stats.CTEFetchesDRAM)
	count("cte.missWalkRelated", &m.Stats.CTEMissWalkRelated)
	count("cte.victimHit", &m.Stats.CTEVictimHits)
	count("spec.verifyOK", &m.Stats.ParallelOK)
	count("spec.verifyFail", &m.Stats.ParallelWrong)
	count("spec.serialNoEmbed", &m.Stats.SerialNoEmbed)
	count("ml2.reads", &m.Stats.ML2Reads)
	count("ml2.toML1", &m.Stats.ML2ToML1)
	count("ml1.toML2", &m.Stats.ML1ToML2)
	count("ml2.incompressSkips", &m.Stats.IncompressSkips)
	v.Level(p+"ml1.pages", func() int64 { return int64(m.ml1AtMig[0]) })
	v.Level(p+"ml1.freeChunks", func() int64 { return int64(m.ml1AtMig[1]) })
	if m.cte != nil {
		count("ctecache.hit", &m.Stats.CTEHits)
		count("ctecache.miss", &m.Stats.CTEMisses)
	}
	if m.ml1 != nil {
		count("pressure.emergencyMigrations", &m.pressure.emergencies)
		count("pressure.stallPS", &m.tally.pressureStallPS)
		count("pressure.exhausted", &m.tally.pressureExhausted)
		v.Level(p+"pressure.overflowPages", func() int64 { return int64(m.pressure.overflowUsed) })
	}
	if m.inj != nil {
		// The injector keeps these tallies; fault.dramBusy is the
		// controller's own, counting operations rather than busy draws.
		fc := func(path string, read func(fault.Counters) uint64) {
			v.CountFunc(p+path, func() uint64 { return read(m.inj.Counters()) })
		}
		fc("fault.payloadCorrupt", func(c fault.Counters) uint64 { return c.Payload })
		fc("fault.quarantines", func(c fault.Counters) uint64 { return c.Quarantines })
		fc("fault.dramSpikes", func(c fault.Counters) uint64 { return c.Spikes })
		count("fault.dramBusy", &m.tally.dramBusy)
		fc("fault.dramRetries", func(c fault.Counters) uint64 { return c.Retries })
		fc("fault.dramTimeouts", func(c fault.Counters) uint64 { return c.Timeouts })
	}
	if m.ras != nil {
		v.CountFunc(p+"ras.retired", m.ras.Retired)
		count("ras.strikes", &m.tally.rasStrikes)
		count("ras.breaker.opens", &m.tally.rasBreakerOpens)
		count("ras.breaker.closes", &m.tally.rasBreakerCloses)
		count("ras.degradedWrites", &m.tally.rasDegradedWrites)
		count("ras.backlogPS", &m.tally.rasBacklogPS)
		count("ras.scrub.pages", &m.tally.rasScrubPages)
		count("ras.scrub.detections", &m.tally.rasScrubDetect)
		count("ras.scrub.ctePTBs", &m.tally.rasScrubCTE)
		count("ras.scrub.cteRepairs", &m.tally.rasScrubRepair)
		o.Gauge(p + "ras.pages").Set(int64(len(m.pages)))
	}
}

// Attr exposes the attribution scratch filled by the last Access; nil
// when attribution is off. Callers must copy it before issuing further
// accesses (writebacks, prefetches, and nested re-accesses reuse it).
func (m *MC) Attr() *attr.Access { return m.ab }

// ml2LatencyBoundsPS buckets demand-decompress latency (in picoseconds):
// 250ns, 500ns, 1µs, 2µs, 5µs, overflow.
var ml2LatencyBoundsPS = []int64{
	int64(250 * config.Nanosecond), int64(500 * config.Nanosecond),
	int64(1000 * config.Nanosecond), int64(2000 * config.Nanosecond),
	int64(5000 * config.Nanosecond),
}

// noteML1 records ML1's occupancy after a migration (ml1AtMig).
func (m *MC) noteML1() { m.ml1AtMig = [2]int{m.ml1Size, m.ml1.Len()} }

// CTECacheConfig is the CTE cache a design of kind builds: the override
// when set, else Compresso's block-level cache or the system's page-level
// one. Uncompressed builds none.
func CTECacheConfig(kind Kind, sys config.System, override *config.CTECacheCfg) config.CTECacheCfg {
	switch {
	case override != nil:
		return *override
	case kind == Compresso:
		return config.CompressoCTE()
	}
	return sys.Comp.CTE
}

// New builds a controller. For compressed designs the caller then Places
// every mapped page (hot first) before simulation. It fails with an error
// wrapping ErrCapacityExhausted when the budget cannot even hold the
// design's metadata (CTE table).
func New(cfg Config) (*MC, error) {
	m := &MC{
		cfg:  cfg,
		dram: dram.New(cfg.Sys.DRAM),
		rng:  rand.New(rand.NewSource(cfg.Seed + 1000)),
		heat: cfg.Obs.View(),
		inj:  cfg.Inject,
	}
	switch cfg.Kind {
	case Uncompressed:
		m.chunkPool = cfg.BudgetPages
	case Compresso:
		m.cte = ctecache.New(CTECacheConfig(cfg.Kind, cfg.Sys, cfg.CTEOverride))
		if err := m.reserveCTETable(64); err != nil {
			return nil, err
		}
	case OSInspired, TMCC:
		m.cte = ctecache.New(CTECacheConfig(cfg.Kind, cfg.Sys, cfg.CTEOverride))
		if err := m.reserveCTETable(8); err != nil {
			return nil, err
		}
		// Overflow region: a sliver of extra frames (1/64 of the budget,
		// at least 16) the degradation ladder may spill into before
		// declaring exhaustion.
		m.pressure.overflowCap = uint32(overflowPages(cfg.BudgetPages))
		chunks := make([]uint32, m.chunkPool)
		for i := range chunks {
			chunks[i] = uint32(m.chunkPool - 1 - uint64(i)) // pop low frames first
		}
		m.ml1 = freelist.NewML1(chunks)
		m.ml2 = freelist.NewML2(nil, m.ml1)
		// Pre-size the Recency List for the whole OS pool so its dense
		// next/prev directory never grows during simulation.
		m.rec = recency.NewSized(int(cfg.OSPages))
		m.migBuf = make([]config.Picos, cfg.Sys.Comp.MigrationBufPages)
		// The paper's watermarks (4000/3000 chunks) fit 100GB machines;
		// scale them down with the budget so small runs keep the same
		// relative slack.
		m.lowMark = cfg.Sys.Comp.FreeListLowChunks
		if s := int(cfg.BudgetPages / 32); s < m.lowMark {
			m.lowMark = s
		}
		if m.lowMark < 8 {
			m.lowMark = 8
		}
		m.crit = m.lowMark * cfg.Sys.Comp.FreeListCritical / maxInt(1, cfg.Sys.Comp.FreeListLowChunks)
	}
	if cfg.VictimShadow && m.cte != nil {
		m.shadow = cache.New(cfg.Sys.Cache.L3SizeMB*config.MiB, 16)
		m.shadowPPB = uint64(1)
		if cfg.CTEOverride != nil {
			m.shadowPPB = uint64(cfg.CTEOverride.ReachPerBlock / (4 * config.KiB))
		}
		if m.shadowPPB == 0 {
			m.shadowPPB = 1
		}
	}
	if cfg.OSPages > 0 {
		m.pages = make([]pageState, cfg.OSPages)
	}
	if cfg.RAS.Enabled() && cfg.OSPages > 0 {
		m.ras = ras.New(cfg.RAS, int(cfg.OSPages), cfg.Seed)
	}
	m.observe(cfg.Obs)
	return m, nil
}

// reserveCTETable carves the linear CTE table (bytesPerPage per OS page)
// out of the budget. A budget too small for its own metadata is capacity
// exhaustion like any other: the error wraps ErrCapacityExhausted, so
// tmccsim prints its capacity diagnosis and the Table IV budget search
// counts the budget as infeasible.
func (m *MC) reserveCTETable(bytesPerPage uint64) error {
	tablePages := (m.cfg.OSPages*bytesPerPage + config.PageSize - 1) / config.PageSize
	if tablePages >= m.cfg.BudgetPages {
		return fmt.Errorf(
			"%w: budget of %d pages cannot hold the %s CTE table (%d pages for %d OS pages at %dB/page); need a budget of at least %d pages",
			ErrCapacityExhausted, m.cfg.BudgetPages, m.cfg.Kind, tablePages, m.cfg.OSPages, bytesPerPage, tablePages+1)
	}
	m.chunkPool = m.cfg.BudgetPages - tablePages
	m.cteTableBase = m.chunkPool * config.PageSize
	return nil
}

// ChunkPool reports the DRAM frames available for data after metadata
// reservations.
func (m *MC) ChunkPool() uint64 { return m.chunkPool }

// LowMark reports the scaled ML1 free-list watermark.
func (m *MC) LowMark() int { return m.lowMark }

// DRAM exposes the timing model (the simulator reads bandwidth stats).
func (m *MC) DRAM() *dram.Controller { return m.dram }

// Kind reports the design.
func (m *MC) Kind() Kind { return m.cfg.Kind }

// ML1Pages returns resident uncompressed pages (compressed designs).
func (m *MC) ML1Pages() int { return m.ml1Size }

// FreeML1Chunks returns the ML1 free list depth.
func (m *MC) FreeML1Chunks() int {
	if m.ml1 == nil {
		return 0
	}
	return m.ml1.Len()
}

// UsedPages estimates current DRAM usage in 4KB frames: data plus the CTE
// table.
func (m *MC) UsedPages() uint64 {
	switch m.cfg.Kind {
	case Uncompressed:
		return uint64(m.ml1Size)
	case Compresso:
		return m.cfg.BudgetPages // sized at placement
	default:
		held := uint64(0)
		if m.ml2 != nil {
			held = uint64(m.ml2.HeldChunks)
		}
		return uint64(m.ml1Size) + held + (m.cfg.BudgetPages - m.chunkPool)
	}
}

// Place makes ppn resident. toML2 pushes it to ML2 (cold pages at warmup).
// Returns false when toML2 was requested but the page is incompressible or
// space ran out (the page lands in ML1 instead).
func (m *MC) Place(ppn uint64, toML2 bool) bool {
	st := &m.pages[ppn]
	if st.placed {
		return true
	}
	if m.ml2 == nil {
		m.placeML1(0, ppn)
		return true
	}
	if toML2 && !st.incompressible {
		size, _ := m.cfg.Sizes.PageSizes(ppn)
		// No size class holds a page that does not compress.
		if sub, ok := m.ml2.Alloc(size); ok {
			st.placed = true
			m.storeML2(ppn, st, sub, size)
			if check.Enabled {
				check.Invariant("mc: chunk-conservation after ML2 place", m.audit)
			}
			return true
		}
		st.incompressible = size >= config.PageSize
	}
	_, ok := m.placeML1(0, ppn)
	return ok && !toML2
}

// placeML1 gives ppn its first uncompressed frame: a fixed function of
// the PPN on the flat designs (Compresso keeps pages in place, repacking
// blocks within them), else a free ML1 frame, walking the pressure ladder
// when the list is empty. ready is when the frame is usable — later than
// now only after an emergency force-migration; ok=false records the
// capacity failure and leaves the page unplaced.
func (m *MC) placeML1(now config.Time, ppn uint64) (config.Time, bool) {
	st := &m.pages[ppn]
	st.placed = true
	if m.ml1 == nil {
		st.chunk = uint32(ppn % m.chunkPool)
		m.ml1Size++
		return now, true
	}
	c, ready, ok := m.popFrame(now)
	if !ok {
		st.placed = false
		m.failCapacity(ppn)
		return now, false
	}
	st.chunk = c
	m.ml1Size++
	m.rec.Touch(ppn)
	if check.Enabled {
		check.Invariant("mc: chunk-conservation after ML1 placement", m.audit)
	}
	return ready, true
}

// lazyPlace places a page first touched during simulation (hot: it goes
// to ML1). A frame that only became available once an emergency
// force-migration completed is charged to the pressureStall attr
// component, so degraded runs show the wait in their latency breakdowns.
// Returns the (possibly stalled) current time.
func (m *MC) lazyPlace(now config.Time, ppn uint64) config.Time {
	ready, _ := m.placeML1(now, ppn)
	if ready > now {
		if m.ab != nil {
			m.ab.Add(attr.CPressureStall, ready-now)
		}
		m.tally.pressureStallPS += uint64(ready - now)
	}
	return ready
}

// storeML2 records ppn's compressed payload in ML2 sub-chunk sub: the
// ML2 entry that first placement and eviction share.
func (m *MC) storeML2(ppn uint64, st *pageState, sub freelist.SubChunk, size int) {
	st.inML2 = true
	st.chunk, st.class, st.slot = sub.Super, sub.Class, sub.Slot
	st.sum = pageChecksum(ppn, size)
	m.ml2CompBytes.Observe(int64(size))
	m.heat.CompressedSize(ppn, int64(size))
}

// TouchPage refreshes a page's recency (placement uses it to seed the
// Recency List coldest-to-hottest).
func (m *MC) TouchPage(ppn uint64) {
	if m.rec == nil {
		return
	}
	st := &m.pages[ppn]
	if st.placed && !st.inML2 && !st.incompressible {
		m.rec.Touch(ppn)
	}
}

// CurrentCTE snapshots the page's translation for embedding into PTBs.
func (m *MC) CurrentCTE(ppn uint64) cte.Entry {
	st := &m.pages[ppn]
	e := cte.Entry{InML2: st.inML2, IsIncompressible: st.incompressible}
	if st.inML2 {
		e.DRAMPage = uint32(m.ml2.Address(st.sub()) / config.PageSize)
	} else {
		e.DRAMPage = st.chunk
	}
	return e
}

func (m *MC) dataAddr(st *pageState, blockOff int) uint64 {
	return uint64(st.chunk)*config.PageSize + uint64(blockOff*config.BlockSize)
}

func (m *MC) cteAddr(ppn uint64) uint64 {
	return m.cte.CTETableAddr(m.cteTableBase, ppn)
}

// Access serves one 64B demand read or posted write from the LLC.
// embedded, when non-nil, is the truncated CTE the request piggybacked
// (TMCC only); walkRelated tags requests caused by a TLB miss (the PTB
// fetches and the immediately following data access) for Figure 5.
func (m *MC) Access(now config.Time, ppn uint64, blockOff int, write bool, embedded *cte.Entry, walkRelated bool) Result {
	if write {
		m.Stats.Writes++
	} else {
		m.Stats.Reads++
	}
	if m.ab != nil {
		m.ab.Reset()
	}
	st := &m.pages[ppn]
	if !st.placed {
		now = m.lazyPlace(now, ppn)
	}
	if m.ras != nil {
		// Window-edge probe for the reliability policies: breaker
		// evaluation, patrol quota, and banked-backlog drain (ras.go).
		now = m.rasTick(now)
	}

	if m.cfg.Kind == Uncompressed {
		done := m.dramOp(now, m.dataAddr(st, blockOff), write)
		if m.ab != nil {
			m.ab.Add(attr.CDataML1, done-now)
		}
		return Result{Done: done, Tag: TagUncompressed}
	}

	// Every request, read or write, needs a physical-to-DRAM translation.
	cteHit := m.cte.Lookup(ppn)
	m.heat.CTE(ppn, cteHit)
	if cteHit {
		m.Stats.CTEHits++
	} else {
		m.Stats.CTEMisses++
		if walkRelated {
			m.Stats.CTEMissWalkRelated++
		}
		if m.shadow != nil {
			if m.shadow.Lookup(ppn/m.shadowPPB) >= 0 {
				m.Stats.CTEVictimHits++
			}
			m.shadow.Insert(ppn/m.shadowPPB, 0)
		}
	}

	var res Result
	if m.cfg.Kind == Compresso {
		res = m.accessCompresso(now, st, ppn, blockOff, write, cteHit)
	} else {
		res = m.accessTwoLevel(now, st, ppn, blockOff, write, cteHit, embedded)
	}
	if m.ras != nil {
		res = m.rasResult(res, write)
	}
	return res
}

func (m *MC) accessCompresso(now config.Time, st *pageState, ppn uint64, blockOff int, write bool, cteHit bool) Result {
	t := now
	if !cteHit {
		// Serial metadata fetch in front of the data access.
		t = m.fetchCTE(now, ppn, "cte.serial")
	}
	done := m.dramOp(t, m.dataAddr(st, blockOff), write)
	if m.ab != nil {
		// The repack traffic below is background DRAM work, not on this
		// access's critical path, so it stays unattributed.
		m.ab.Add(attr.CCTESerial, t-now)
		m.ab.Add(attr.CDataML1, done-t)
	}
	tag := TagCTEHit
	if !cteHit {
		tag = TagSerial
	}
	if write {
		// Writebacks can change a block's compressibility; Compresso
		// repacks the page when its chunks overflow or gain slack. Charge
		// the occasional background traffic (reads+writes of the moved
		// blocks).
		if m.rng.Float64() < 0.03 {
			for i := 0; i < 8; i++ {
				a := m.dataAddr(st, (blockOff+i)%config.BlocksPage)
				m.dram.Read(done, a)
				m.dram.Write(done, a)
			}
		}
	}
	return Result{Done: done, Tag: tag}
}

func (m *MC) accessTwoLevel(now config.Time, st *pageState, ppn uint64, blockOff int, write bool, cteHit bool, embedded *cte.Entry) Result {
	// Sample 1% of ML1 accesses into the Recency List (Section IV-B).
	if !st.inML2 && m.rng.Float64() < m.cfg.Sys.Comp.RecencySampleRate {
		if st.incompressible {
			// Retired pages never re-candidate: their frame is permanently
			// pinned uncompressed.
			if !st.retired && write && m.rng.Float64() < 0.01 {
				m.rec.InsertCold(ppn) // re-candidate after writebacks
				st.incompressible = false
			}
		} else {
			m.rec.Touch(ppn)
		}
	}

	if st.inML2 {
		done := m.serveML2(now, st, ppn, blockOff, cteHit)
		m.maybeEvict(done)
		return Result{Done: done, Tag: TagML2}
	}

	var done config.Time
	tag := TagCTEHit
	switch {
	case cteHit:
		done = m.dramOp(now, m.dataAddr(st, blockOff), write)
		if m.ab != nil {
			m.ab.Add(attr.CDataML1, done-now)
		}
	case m.cfg.Kind == TMCC && embedded != nil:
		// Speculative parallel access (Section V-A3): fetch the data at
		// the embedded CTE's location and the authoritative CTE at once.
		truth := m.CurrentCTE(ppn)
		cteDone := m.fetchCTE(now, ppn, "cte.parallel")
		specAddr := uint64(embedded.DRAMPage)*config.PageSize + uint64(blockOff*config.BlockSize)
		dataDone := m.dramOp(now, specAddr, write)
		done = maxTime(cteDone, dataDone)
		if m.ab != nil {
			// Both fetches at full duration, with the time they spent in
			// flight together credited back — the paper's Fig. 4 overlap.
			m.ab.Add(attr.CDataML1, dataDone-now)
			m.ab.Add(attr.CCTEParallel, cteDone-now)
			m.ab.Add(attr.COverlap, (dataDone-now)+(cteDone-now)-(done-now))
		}
		if embedded.DRAMPage == truth.DRAMPage && !embedded.InML2 {
			if check.Enabled {
				// Verified speculation must have fetched from the page's
				// authoritative location — the "never return wrong data"
				// contract the fault injector probes.
				check.Assert(specAddr == m.dataAddr(st, blockOff),
					"mc: verified speculation fetched %#x but page lives at %#x",
					specAddr, m.dataAddr(st, blockOff))
			}
			tag = TagParallelOK
			m.Stats.ParallelOK++
		} else {
			// Mismatch: re-access at the correct location.
			tag = TagParallelWrong
			m.Stats.ParallelWrong++
			redoFrom := done
			done = m.dramOp(done, m.dataAddr(st, blockOff), write)
			if check.Enabled {
				// Recovery re-fetches serially, after verification, from
				// the authoritative frame.
				check.Assert(done > redoFrom,
					"mc: verify-redo did not re-fetch serially (done %d <= %d)",
					done, redoFrom)
			}
			if m.ab != nil {
				m.ab.Add(attr.CVerifyRedo, done-redoFrom)
			}
		}
	default:
		// Serial: wait for the CTE from DRAM, then fetch the data.
		t := m.fetchCTE(now, ppn, "cte.serial")
		done = m.dramOp(t, m.dataAddr(st, blockOff), write)
		if m.ab != nil {
			m.ab.Add(attr.CCTESerial, t-now)
			m.ab.Add(attr.CDataML1, done-t)
		}
		tag = TagSerial
		m.Stats.SerialNoEmbed++
	}
	m.maybeEvict(done)
	return Result{Done: done, Tag: tag}
}

// serveML2 handles a demand access to a compressed page: resolve the CTE,
// stream the compressed blocks from DRAM, decompress until the needed
// block, respond, and migrate the page to ML1 in the background.
func (m *MC) serveML2(now config.Time, st *pageState, ppn uint64, blockOff int, cteHit bool) config.Time {
	m.Stats.ML2Reads++
	m.heat.Event(ppn, heatmap.EvML2Read)
	t := now
	if !cteHit {
		t = m.fetchCTE(now, ppn, "cte.serial")
	}
	if m.ab != nil {
		m.ab.Add(attr.CCTESerial, t-now)
	}
	// Wait for a free migration-buffer entry (eight 4KB staging slots).
	slot := 0
	for i, busy := range m.migBuf {
		if busy < m.migBuf[slot] {
			slot = i
		}
	}
	preStall := t
	if m.migBuf[slot] > t {
		t = m.migBuf[slot]
	}
	if m.ab != nil && t > preStall {
		m.ab.Add(attr.CMigStall, t-preStall)
	}

	size, _ := m.cfg.Sizes.PageSizes(ppn)
	last := m.stream(t, m.subAddrs(st.sub(), size), false)
	// The decompressor starts once the first blocks arrive and the
	// requested 64B block is ready after the half-page latency on average.
	respond := last + m.cfg.ML2HalfPage

	m.payloadFault(st)
	quarantined := st.sum != pageChecksum(ppn, size)
	if quarantined {
		// One bounded re-read and re-decompress (charged like a verify
		// redo) before the page is quarantined out of ML2.
		m.quarantine(ppn)
		respond += m.cfg.ML2HalfPage
		if m.ab != nil {
			m.ab.Add(attr.CVerifyRedo, m.cfg.ML2HalfPage)
		}
	}
	m.tr.Emit(obs.CatML2, "decompress", obs.TIDMC, now, respond)
	m.ml2DecompressPS.Observe(int64(respond - now))
	if m.ab != nil {
		// cteSerial + migStall + dataML2 + decompress (+ the quarantine
		// retry above) == respond - now: the ML2 critical path, with the
		// background migration excluded.
		m.ab.Add(attr.CDataML2, last-t)
		m.ab.Add(attr.CDecompress, m.cfg.ML2HalfPage)
	}

	// Background migration to ML1 (mandatory for a quarantined page).
	chunk, ok := m.ml1.Pop()
	if !ok {
		_, _, _ = m.evictOne(respond)
		chunk, ok = m.ml1.Pop()
	}
	if !ok {
		if quarantined {
			// No frame even after an eviction attempt: the scrubber
			// rewrites the payload in place and the page stays in ML2
			// with its checksum restored.
			st.sum = pageChecksum(ppn, size)
		}
		// No room: serve from ML2 without migrating.
		return respond
	}
	m.promote(ppn, st, chunk, size, quarantined)
	// The page write-out occupies the staging slot.
	wt := m.stream(respond, m.frameAddrs(chunk), true)
	m.migBuf[slot] = wt
	m.tr.Emit(obs.CatMigration, "ml2->ml1", obs.TIDMC, respond, wt)
	return respond
}

// promote moves ppn out of ML2 onto the ML1 frame chunk: the one ML2
// exit, shared by the demand migration and the patrol's quarantine. A
// quarantined page stays uncompressed from here on, and with RAS armed
// may retire the frame it just landed on.
func (m *MC) promote(ppn uint64, st *pageState, chunk uint32, size int, quarantined bool) {
	if err := m.ml2.Free(st.sub(), size); err != nil {
		// The sub-block allocation record disagrees with the page state:
		// ML2 capacity accounting is corrupt and every later placement
		// decision would be wrong, so this is a simulator bug, not a
		// recoverable condition.
		panic(fmt.Sprintf("mc: freeing ML2 sub-blocks for ppn %#x: %v", ppn, err))
	}
	st.inML2 = false
	st.chunk = chunk
	m.ml1Size++
	m.rec.Touch(ppn)
	m.Stats.ML2ToML1++
	m.heat.Event(ppn, heatmap.EvML2ToML1)
	if quarantined {
		st.incompressible = true
		if m.ras != nil {
			m.maybeRetire(ppn, st)
		}
	}
	m.noteML1()
	if check.Enabled {
		check.Invariant("mc: chunk-conservation after ML2 exit", m.audit)
	}
}

// payloadFault draws the armed injector's payload fault: bits flipped in
// the stored compressed payload, so the page's stored checksum no longer
// matches what decompression produces.
func (m *MC) payloadFault(st *pageState) {
	if m.inj != nil && m.inj.Payload() {
		st.sum ^= 1
	}
}

// quarantine records a checksum mismatch found after decompression, by a
// demand read or the patrol: the page must leave ML2 and live
// uncompressed from here on, and the detection strikes its scoreboard.
func (m *MC) quarantine(ppn uint64) {
	m.inj.NoteQuarantine()
	m.heat.Event(ppn, heatmap.EvQuarantine)
	m.rasStrike(ppn)
}

// Settle drives background eviction to steady state: evict cold pages
// until the ML1 free list sits above the low watermark (the transient
// after placement, where freshly carved super-chunks consume more chunks
// than evictions return, would otherwise pollute the measured window).
func (m *MC) Settle() {
	if m.ml1 == nil {
		return
	}
	for m.ml1.Len() < m.lowMark+64 {
		if _, _, ok := m.evictOne(0); !ok {
			break
		}
	}
	if check.Enabled {
		check.Invariant("mc: page-table/CTE accounting after Settle", m.AuditPages)
	}
}

// maybeEvict keeps the ML1 free list above the low watermark, mirroring
// Section VI's two-threshold policy. Demand work has priority, so a single
// access triggers at most a couple of evictions.
func (m *MC) maybeEvict(now config.Time) {
	if m.ml1 == nil {
		return
	}
	if m.ras != nil && m.ras.Degraded() {
		// Breaker open: stop feeding pages into the (suspect) compressed
		// tier. The emergency ladder still force-migrates when the free
		// list empties, so the controller cannot wedge.
		return
	}
	if m.ml1.Len() >= m.lowMark {
		return
	}
	n := 1
	if m.ml1.Len() < m.crit {
		n = 4 // eviction outranks demand below the critical mark
	}
	for i := 0; i < n; i++ {
		if _, _, ok := m.evictOne(now); !ok {
			return
		}
	}
}

// evictOne migrates the coldest ML1 page to ML2; ok=false when no
// eviction was possible, and the first return names the evicted page
// (the pressure ladder stamps it on the heatmap as an emergency
// victim). The returned time is the migration's write-out completion —
// background work normally, but the pressure ladder blocks on it when
// force-migrating on a requester's critical path.
func (m *MC) evictOne(now config.Time) (uint64, config.Time, bool) {
	for {
		ppn, ok := m.rec.EvictColdest()
		if !ok {
			return 0, now, false
		}
		st := &m.pages[ppn]
		if st.inML2 || !st.placed {
			continue
		}
		size, _ := m.cfg.Sizes.PageSizes(ppn)
		if st.incompressible || size >= config.PageSize {
			// Quarantined after a payload fault, re-candidated and then
			// flagged, or incompressible: retain in ML1, off the Recency
			// List, so we do not repeatedly recompress it (Section IV-B).
			st.incompressible = true
			m.Stats.IncompressSkips++
			continue
		}
		sub, ok := m.ml2.Alloc(size)
		if !ok {
			return 0, now, false
		}
		// Read the page and write the compressed sub-chunk.
		m.stream(now, m.frameAddrs(st.chunk), false)
		wlast := m.stream(now+m.cfg.ML2Compress, m.subAddrs(sub, size), true)
		if uint64(st.chunk) >= m.cfg.BudgetPages {
			m.overflowRelease(st.chunk)
		} else {
			m.ml1.Push(st.chunk)
		}
		m.storeML2(ppn, st, sub, size)
		m.ml1Size--
		m.Stats.ML1ToML2++
		m.heat.Event(ppn, heatmap.EvML1ToML2)
		m.tr.Emit(obs.CatMigration, "ml1->ml2", obs.TIDMC, now, wlast)
		m.noteML1()
		if check.Enabled {
			check.Invariant("mc: chunk-conservation after eviction", m.audit)
		}
		return ppn, wlast, true
	}
}

// fetchCTE reads the CTE block covering ppn from the DRAM table and fills
// the CTE cache; span names the trace event (serial or parallel fetch).
func (m *MC) fetchCTE(now config.Time, ppn uint64, span string) config.Time {
	t := m.dramOp(now, m.cteAddr(ppn), false)
	m.Stats.CTEFetchesDRAM++
	m.tr.Emit(obs.CatCTEFetch, span, obs.TIDMC, now, t)
	m.cte.Fill(ppn)
	return t
}

// stream issues one page-granularity DRAM stream from start while holding
// at most MaxQueueSlots MC queue slots (Section VI): op i issues once op
// i-slots has completed. It returns the last op's completion, or start
// for an empty stream.
func (m *MC) stream(start config.Time, addrs []uint64, write bool) config.Time {
	slots := m.cfg.Sys.Comp.MaxQueueSlots
	if cap(m.win) < slots {
		m.win = make([]config.Time, slots)
	}
	win := m.win[:slots]
	clear(win)
	last := start
	for i, a := range addrs {
		issue := maxTime(start, win[i%slots])
		if write {
			last = m.dram.Write(issue, a)
		} else {
			last = m.dram.Read(issue, a)
		}
		win[i%slots] = last
	}
	return last
}

// frameAddrs lists ML1 frame chunk's 64 block addresses in the stream
// address scratch.
func (m *MC) frameAddrs(chunk uint32) []uint64 {
	m.addrs = m.addrs[:0]
	for b := 0; b < config.BlocksPage; b++ {
		m.addrs = append(m.addrs, uint64(chunk)*config.PageSize+uint64(b*config.BlockSize))
	}
	return m.addrs
}

// subAddrs lists the block addresses of a size-byte payload in ML2
// sub-chunk sub in the stream address scratch.
func (m *MC) subAddrs(sub freelist.SubChunk, size int) []uint64 {
	m.addrs = m.ml2.AppendBlockAddresses(m.addrs[:0], sub, size)
	return m.addrs
}

// dramOp wraps read/write with the MC<->LLC NoC latency on the response
// path for reads. The armed fault injector may delay the issue (latency
// spike, transient channel busy); the one nil check is the entire cost of
// the hook in healthy runs.
func (m *MC) dramOp(now config.Time, addr uint64, write bool) config.Time {
	if m.inj != nil {
		now = m.injectDRAM(now, addr)
	}
	if write {
		return m.dram.Write(now, addr)
	}
	return m.dram.Read(now, addr)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxTime(a, b config.Time) config.Time {
	if a > b {
		return a
	}
	return b
}

// StatsSnapshot copies the counters.
func (m *MC) StatsSnapshot() Stats { return m.Stats }

// ResetStats clears the MC and DRAM counters (end of warmup).
func (m *MC) ResetStats() {
	m.Stats = Stats{}
	m.dram.ResetStats()
}

// SampleResidency sweeps every placed page's current tier into the run
// view's heatmap — run by the simulator when a sampling window edge
// passes and once at the end of every run; a no-op unless the heatmap is
// armed. Overflow frames are the pressure ladder's beyond-budget chunks;
// everything else uncompressed is ML1. Read-only: it must never perturb
// placement or recency state.
func (m *MC) SampleResidency() {
	if !m.heat.Sweep() {
		return
	}
	for ppn := range m.pages {
		st := &m.pages[ppn]
		if !st.placed {
			continue
		}
		tier := heatmap.TierML1
		switch {
		case st.retired:
			tier = heatmap.TierRetired
		case st.inML2:
			tier = heatmap.TierML2
		case uint64(st.chunk) >= m.cfg.BudgetPages:
			tier = heatmap.TierOverflow
		}
		m.heat.Residency(uint64(ppn), tier)
	}
}

// InML2 reports whether ppn currently lives compressed.
func (m *MC) InML2(ppn uint64) bool { return m.pages[ppn].inML2 }

// Placed reports whether ppn has a resident location.
func (m *MC) Placed(ppn uint64) bool {
	return ppn < uint64(len(m.pages)) && m.pages[ppn].placed
}
