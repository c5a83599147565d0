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
	"fmt"

	"tmcc/internal/cache"
	"tmcc/internal/check"
	"tmcc/internal/config"
)

// Cache is the MC-side CTE cache.
type Cache struct {
	c           *cache.Cache
	pagesPerBlk uint64
	cfg         config.CTECacheCfg
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

// blockFor maps a physical page number to its CTE block id.
func (c *Cache) blockFor(ppn uint64) uint64 { return ppn / c.pagesPerBlk }

// Lookup probes the cache for the CTE covering ppn.
func (c *Cache) Lookup(ppn uint64) bool { return c.c.Lookup(c.blockFor(ppn)) >= 0 }

// Fill caches the CTE block covering ppn after a DRAM fetch.
func (c *Cache) Fill(ppn uint64) { c.c.Insert(c.blockFor(ppn), 0) }

// Probe checks presence without recency/counter side effects.
func (c *Cache) Probe(ppn uint64) bool { return c.c.Probe(c.blockFor(ppn)) >= 0 }

// CTETableAddr returns the DRAM address of the 64B CTE block covering ppn,
// given the base of the linear CTE table in DRAM (Section II: MC stores
// CTEs in DRAM as a linear 1-level table).
func (c *Cache) CTETableAddr(tableBase uint64, ppn uint64) uint64 {
	return tableBase + c.blockFor(ppn)*config.BlockSize
}

// BufEntry is one CTE Buffer record (Figure 10): keyed by the PPN a PTE
// maps to, carrying the truncated CTE embedded in the PTB (if any) and the
// PTB that held the PTE — needed for the lazy write-back of corrected
// CTEs. The hardware keeps the PTB's physical address; the model keeps its
// dense pagetable.Table slot, which names the same PTB without a
// directory probe.
type BufEntry struct {
	PPN     uint64
	CTE     uint32
	HasCTE  bool
	PTBSlot int
}

// MaxBufferEntries bounds the entries NewBuffer accepts, so every slot
// and bucket count fits a bucket's uint16 fields.
const MaxBufferEntries = 1 << 15

// bucketsPerEntry sizes the probe filter. A bucket is 4 B, so 16 per
// entry cost 4 KiB beside a 64-entry Buffer's 2 KiB of keys and entries,
// and leave the bucket of a PPN that is not buffered empty for about 94%
// of such probes on tmcc-steady's traces (4 per entry: 78%).
const bucketsPerEntry = 16

// bucket is one probe-filter bucket: how many live keys fall in it, and
// the slot it last filled.
type bucket struct{ n, hint uint16 }

// Buffer is the 64-entry CTE Buffer in L2 (~1KB), a CAM with FIFO
// replacement. keys holds PPN+1 per entry (0 = invalid, the encoding
// cache tags use; PPNs are 40 bits) in a contiguous array. The model
// answers a probe in O(1) in the common case, where the CAM compares
// every entry in parallel: each low-key-bits bucket keeps a live-key count
// and the slot it last filled, so a probe whose bucket is empty misses
// without reading keys, and a probe for a PPN its bucket last filled hits
// on one compare. Only a probe that matches neither scans keys. A slot a
// probe returns stays valid until the next Insert.
type Buffer struct {
	keys    []uint64
	entries []BufEntry
	next    int
	mask    uint64 // len(buckets)-1
	buckets []bucket
	// Hits and Misses count Lookup outcomes over the buffer's lifetime.
	Hits, Misses uint64
}

// NewBuffer returns a buffer with n entries (the paper uses 64); n must
// lie in [1, MaxBufferEntries].
func NewBuffer(n int) *Buffer {
	if n < 1 || n > MaxBufferEntries {
		panic(fmt.Sprintf("ctecache: CTE Buffer of %d entries, want 1..%d", n, MaxBufferEntries))
	}
	nb := 1
	for nb < bucketsPerEntry*n {
		nb <<= 1
	}
	return &Buffer{
		keys:    make([]uint64, n),
		entries: make([]BufEntry, n),
		mask:    uint64(nb - 1),
		buckets: make([]bucket, nb),
	}
}

// find returns key k's (PPN+1) bucket and the slot holding k, or -1.
func (b *Buffer) find(k uint64) (*bucket, int) {
	bk := &b.buckets[k&b.mask]
	if bk.n == 0 {
		return bk, -1
	}
	if b.keys[bk.hint] == k {
		return bk, int(bk.hint)
	}
	for i, key := range b.keys {
		if key == k {
			return bk, i
		}
	}
	return bk, -1
}

// Insert records an entry, replacing any existing entry for the same PPN,
// else the FIFO victim. It invalidates every slot returned before it.
func (b *Buffer) Insert(e BufEntry) {
	k := e.PPN + 1
	bk, i := b.find(k)
	var old uint64 // the evicted key, 0 if none
	if i < 0 {
		i = b.next
		if b.next++; b.next == len(b.keys) {
			b.next = 0
		}
		if old = b.keys[i]; old != 0 {
			b.buckets[old&b.mask].n--
		}
		b.keys[i] = k
		bk.n++
	}
	bk.hint = uint16(i)
	b.entries[i] = e
	if check.Enabled {
		check.Invariant("ctecache: buffer bucket counts", func() error { return b.recount(k, old) })
	}
}

// recount re-derives from keys the counts of the buckets an Insert of
// key k that evicted key old (0 if none) changed, and checks them and the
// FIFO cursor. Only Insert changes counts, and a new Buffer's are all
// zero, so checking these two after every Insert keeps every bucket's
// count equal to its recount from keys, in O(entries) per Insert.
func (b *Buffer) recount(k, old uint64) error {
	var nk, nold uint16
	for _, key := range b.keys {
		if key != 0 && key&b.mask == k&b.mask {
			nk++
		}
		if key != 0 && key&b.mask == old&b.mask {
			nold++
		}
	}
	if got := b.buckets[k&b.mask].n; got != nk {
		return fmt.Errorf("bucket %d counts %d live keys, keys hold %d", k&b.mask, got, nk)
	}
	if got := b.buckets[old&b.mask].n; old != 0 && got != nold {
		return fmt.Errorf("bucket %d counts %d live keys after an eviction, keys hold %d", old&b.mask, got, nold)
	}
	if b.next < 0 || b.next >= len(b.keys) {
		return fmt.Errorf("FIFO cursor %d outside %d entries", b.next, len(b.keys))
	}
	return nil
}

// Lookup probes for the entry for ppn and returns its slot, or -1. The
// slot is valid until the next Insert.
func (b *Buffer) Lookup(ppn uint64) int {
	if _, i := b.find(ppn + 1); i >= 0 {
		b.Hits++
		return i
	}
	b.Misses++
	return -1
}

// At returns the entry in a slot Lookup returned.
func (b *Buffer) At(slot int) BufEntry { return b.entries[slot] }

// UpdateAt stores the corrected CTE into the entry at a slot Lookup
// returned (on a response from the MC); it returns the entry's PTB slot
// and whether its CTE differed (the PTB must then be rewritten).
func (b *Buffer) UpdateAt(slot int, correct uint32) (ptbSlot int, stale bool) {
	e := &b.entries[slot]
	stale = !e.HasCTE || e.CTE != correct
	e.CTE = correct
	e.HasCTE = true
	return e.PTBSlot, stale
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
