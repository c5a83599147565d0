// Package ctecache models the memory controller's CTE cache (Section II/III)
// and TMCC's CTE Buffer (Section V-A3, Figure 10).
//
// The CTE cache holds 64B CTE blocks. Its reach per block depends on the
// design: Compresso's block-level metadata needs a whole 64B block per 4KB
// page (reach 4KB/block), while TMCC's 8B page-level CTEs pack eight pages
// per block (reach 32KB/block) — the 8x reach difference is the core of
// Section IV's argument.
package ctecache

import (
	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/obs"
)

// Cache is the MC-side CTE cache.
type Cache struct {
	c           *cache.Cache
	pagesPerBlk uint64
	cfg         config.CTECacheCfg
	// Observability counters (nil when not observed): lifetime Lookup
	// outcomes, bumped live so a registry snapshot mid-run is meaningful.
	obsHit, obsMiss *obs.Counter
	// heat, when non-nil, receives the same Lookup outcomes keyed by page
	// — the heatmap's CTE-locality series (nil-safe methods).
	heat *obs.RunView
}

// New builds a CTE cache from its configuration.
func New(cfg config.CTECacheCfg) *Cache {
	ppb := uint64(cfg.ReachPerBlock / (4 * config.KiB))
	if ppb == 0 {
		ppb = 1
	}
	return &Cache{
		c:           cache.New(cfg.SizeKB*config.KiB, cfg.Assoc),
		pagesPerBlk: ppb,
		cfg:         cfg,
	}
}

// Observe registers hit/miss counters for Lookup outcomes and the run
// view whose heatmap also receives them, keyed by the page's region; nil
// arguments (the default) keep the cache unobserved at zero cost.
func (c *Cache) Observe(hit, miss *obs.Counter, heat *obs.RunView) {
	c.obsHit, c.obsMiss, c.heat = hit, miss, heat
}

// blockFor maps a physical page number to its CTE block id.
func (c *Cache) blockFor(ppn uint64) uint64 { return ppn / c.pagesPerBlk }

// Lookup probes the cache for the CTE covering ppn.
func (c *Cache) Lookup(ppn uint64) bool {
	if c.c.Lookup(c.blockFor(ppn)) >= 0 {
		c.obsHit.Inc()
		c.heat.CTE(ppn, true)
		return true
	}
	c.obsMiss.Inc()
	c.heat.CTE(ppn, false)
	return false
}

// Fill caches the CTE block covering ppn after a DRAM fetch.
func (c *Cache) Fill(ppn uint64) { c.c.Insert(c.blockFor(ppn), 0) }

// Probe checks presence without recency/counter side effects.
func (c *Cache) Probe(ppn uint64) bool { return c.c.Probe(c.blockFor(ppn)) >= 0 }

// Hits and Misses expose the counters.
func (c *Cache) Hits() uint64   { return c.c.Hits }
func (c *Cache) Misses() uint64 { return c.c.Misses }

// HitRate is hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.c.Hits + c.c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.c.Hits) / float64(t)
}

// CTETableAddr returns the DRAM address of the 64B CTE block covering ppn,
// given the base of the linear CTE table in DRAM (Section II: MC stores
// CTEs in DRAM as a linear 1-level table).
func (c *Cache) CTETableAddr(tableBase uint64, ppn uint64) uint64 {
	return tableBase + c.blockFor(ppn)*config.BlockSize
}

// BufEntry is one CTE Buffer record (Figure 10): keyed by the PPN a PTE
// maps to, carrying the truncated CTE embedded in the PTB (if any) and the
// physical address of the PTB that held the PTE — needed for the lazy
// write-back of corrected CTEs.
type BufEntry struct {
	PPN     uint64
	CTE     uint32
	HasCTE  bool
	PTBAddr uint64
}

// Buffer is the 64-entry CTE Buffer in L2 (~1KB). FIFO replacement: the
// hardware is a small circular structure, so the model matches it with a
// linear CAM-style scan — no map, no allocation on the simulator's access
// path. The scan reads only keys, a contiguous array holding PPN+1 per
// entry (0 = invalid, the encoding cache tags use; PPNs are 40 bits), so
// a probe is one compare per word and reads no entry.
type Buffer struct {
	keys    []uint64
	entries []BufEntry
	next    int
	// Observability counters (nil when not observed).
	obsHit, obsMiss *obs.Counter
}

// Observe registers hit/miss counters for Lookup outcomes.
func (b *Buffer) Observe(hit, miss *obs.Counter) {
	b.obsHit, b.obsMiss = hit, miss
}

// NewBuffer returns a buffer with n entries (the paper uses 64).
func NewBuffer(n int) *Buffer {
	return &Buffer{
		keys:    make([]uint64, n),
		entries: make([]BufEntry, n),
	}
}

// find returns the index of the valid entry for ppn, or -1.
func (b *Buffer) find(ppn uint64) int {
	k := ppn + 1
	for i, key := range b.keys {
		if key == k {
			return i
		}
	}
	return -1
}

// Insert records an entry, replacing any existing entry for the same PPN,
// else the FIFO victim.
func (b *Buffer) Insert(e BufEntry) {
	i := b.find(e.PPN)
	if i < 0 {
		i = b.next
		b.next = (b.next + 1) % len(b.keys)
		b.keys[i] = e.PPN + 1
	}
	b.entries[i] = e
}

// Lookup fetches the entry for ppn.
func (b *Buffer) Lookup(ppn uint64) (BufEntry, bool) {
	if i := b.find(ppn); i >= 0 {
		b.obsHit.Inc()
		return b.entries[i], true
	}
	b.obsMiss.Inc()
	return BufEntry{}, false
}

// Update stores the corrected CTE into an existing entry (on a response
// from the MC); reports whether the entry was present and whether its CTE
// differed (the PTB must then be rewritten).
func (b *Buffer) Update(ppn uint64, correct uint32) (ptbAddr uint64, present, stale bool) {
	i := b.find(ppn)
	if i < 0 {
		return 0, false, false
	}
	e := &b.entries[i]
	stale = !e.HasCTE || e.CTE != correct
	e.CTE = correct
	e.HasCTE = true
	return e.PTBAddr, true, stale
}

// Len reports valid entries.
func (b *Buffer) Len() int {
	n := 0
	for _, k := range b.keys {
		if k != 0 {
			n++
		}
	}
	return n
}
