// Package cache models the on-chip cache hierarchy of Table III: per-core
// L1 and inclusive L2, a shared exclusive L3, plus the simple next-line and
// stride prefetchers the paper simulates. Caches here are tag stores with
// LRU replacement — the simulator composes their hit/miss outcomes with the
// fixed hit latencies from Table III; data values live elsewhere (the
// simulation is execution-driven for addresses, functional for contents).
package cache

import (
	"fmt"
	"math/bits"

	"tmcc/internal/check"
	"tmcc/internal/fastdiv"
)

// MaxWays bounds a set's associativity: a set's recency ranks are 4-bit
// fields packed in one uint64.
const MaxWays = 16

// Cache is a set-associative, exact-LRU tag store over 64B block numbers.
// A probe (Lookup or Probe) returns the line's slot, set<<4 | way, and
// every follow-up on that line (flags, invalidation) takes the slot, so an
// access scans a set's tags once. Recency, validity and flags of a set
// live in its one 32 B header, so a fill touches the header's host line
// and the victim's tag line.
type Cache struct {
	sets fastdiv.Divisor
	ways int
	tags []uint64 // +1 encoding, 0 = invalid
	hdr  []header // one per set
}

// header is a set's replacement state. rank holds way w's recency rank in
// bits 4w..4w+3, 0 the most recent; the first ways ranks are always a
// permutation of 0..ways-1, and the unused ranks above keep their
// identity values ways..15, which no update moves. valid has bit w set
// while way w holds a line.
type header struct {
	rank  uint64
	valid uint64
	flags [MaxWays]uint8
}

// identityRanks ranks way w at w.
const identityRanks = 0xFEDCBA9876543210

// Nibble-lane masks: the low and the high bit of each 4-bit lane.
const (
	lanesLo = 0x1111111111111111
	lanesHi = 0x8888888888888888
)

// Line flags.
const (
	FlagDirty uint8 = 1 << iota
	// FlagCompressedPTB is TMCC's per-line "new data bit" (Section V-A4):
	// the line holds a hardware-compressed PTB with embedded CTEs.
	FlagCompressedPTB
)

// Sets reports how many sets New(sizeBytes, ways) builds; 0 means the
// geometry is degenerate (no whole line, or no way) and New must not be
// called with it.
func Sets(sizeBytes, ways int) int {
	lines := sizeBytes / 64
	if lines < 1 || ways < 1 {
		return 0
	}
	return lines / Ways(sizeBytes, ways)
}

// Ways reports the associativity New(sizeBytes, ways) builds: ways,
// clamped to the cache's whole lines. It must not exceed MaxWays.
func Ways(sizeBytes, ways int) int { return min(ways, sizeBytes/64) }

// New builds a cache of the given total size in bytes with 64B lines.
func New(sizeBytes, ways int) *Cache {
	sets := Sets(sizeBytes, ways)
	ways = Ways(sizeBytes, ways)
	if ways > MaxWays {
		panic(fmt.Sprintf("cache: %d ways per set, at most %d", ways, MaxWays))
	}
	c := &Cache{
		sets: fastdiv.New(uint64(sets)),
		ways: ways,
		tags: make([]uint64, sizeBytes/64),
		hdr:  make([]header, sets),
	}
	for i := range c.hdr {
		c.hdr[i].rank = identityRanks
	}
	return c
}

// Probe returns block's slot, or -1, without touching recency.
func (c *Cache) Probe(block uint64) int {
	s := int(c.sets.Mod(block))
	base, k := s*c.ways, block+1
	for w, t := range c.tags[base : base+c.ways] {
		if t == k {
			return s<<4 | w
		}
	}
	return -1
}

// Lookup probes for block: on a hit it makes the line the set's most
// recent and returns its slot, on a miss it returns -1.
func (c *Cache) Lookup(block uint64) int {
	i := c.Probe(block)
	if i >= 0 {
		c.touch(&c.hdr[i>>4], i&15)
	}
	return i
}

// touch makes way w its set's most recent: every rank below w's rises by
// one and w's becomes 0, in one branch-free step over the nibble lanes.
func (c *Cache) touch(h *header, w int) {
	x := h.rank
	r := x >> (4 * w) & 0xF
	rb := r * lanesLo // r in every lane
	// Lane high bit of z: low three bits of x >= those of r; no lane
	// borrows, as each lane computes (x|8) - (r&7) >= 1.
	z := (x | lanesHi) - (rb &^ lanesHi)
	ge := (x&^rb | ^(x^rb)&z) & lanesHi // lanes with x >= r
	h.rank = (x + (ge^lanesHi)>>3) &^ (0xF << (4 * w))
	if check.Enabled {
		check.Invariant("cache: rank-permutation", func() error { return c.auditRanks(h.rank) })
	}
}

// auditRanks reports a rank word whose first ways ranks are not a
// permutation of 0..ways-1, or whose unused ranks left their identity.
func (c *Cache) auditRanks(rank uint64) error {
	var seen uint32
	for w := range MaxWays {
		r := int(rank >> (4 * w) & 0xF)
		if w >= c.ways && r != w {
			return fmt.Errorf("unused way %d has rank %d in %016x", w, r, rank)
		}
		seen |= 1 << r
	}
	if seen != 1<<MaxWays-1 {
		return fmt.Errorf("ranks %016x of a %d-way set are not a permutation", rank, c.ways)
	}
	return nil
}

// FlagsAt returns the flags of the line in slot.
func (c *Cache) FlagsAt(slot int) uint8 { return c.hdr[slot>>4].flags[slot&15] }

// SetFlagsAt overwrites the flags of the line in slot.
func (c *Cache) SetFlagsAt(slot int, f uint8) { c.hdr[slot>>4].flags[slot&15] = f }

// OrFlagsAt sets bits on the line in slot.
func (c *Cache) OrFlagsAt(slot int, f uint8) { c.hdr[slot>>4].flags[slot&15] |= f }

// Victim describes an evicted line.
type Victim struct {
	Block uint64
	Flags uint8
	Valid bool
}

// Insert fills block (with flags) into the set's first invalid way, else
// its least recently used one, and returns the victim, if a valid line
// was displaced. The set is not probed: a block already present elsewhere
// in the set stays there too, and no victim is reported only when the
// chosen way held block itself.
func (c *Cache) Insert(block uint64, flags uint8) Victim {
	s := int(c.sets.Mod(block))
	h := &c.hdr[s]
	var w int
	if free := ^h.valid & (1<<c.ways - 1); free != 0 {
		w = bits.TrailingZeros64(free)
	} else {
		// The way ranked ways-1: the zero lane of rank ^ (ways-1). The
		// lowest lane the zero-lane test flags is always a true zero.
		y := h.rank ^ uint64(c.ways-1)*lanesLo
		w = bits.TrailingZeros64((y-lanesLo)&^y&lanesHi) >> 2
	}
	i := s*c.ways + w
	var out Victim
	if t := c.tags[i]; t != 0 && t != block+1 {
		out = Victim{Block: t - 1, Flags: h.flags[w], Valid: true}
	}
	c.tags[i] = block + 1
	h.valid |= 1 << w
	h.flags[w] = flags
	c.touch(h, w)
	return out
}

// InvalidateAt removes the line in slot (for exclusive-L3 promotion),
// returning its flags. The way keeps its rank: it is refilled before any
// valid way is evicted, and the fill makes it the most recent.
func (c *Cache) InvalidateAt(slot int) uint8 {
	h, w := &c.hdr[slot>>4], slot&15
	f := h.flags[w]
	c.tags[(slot>>4)*c.ways+w] = 0
	h.valid &^= 1 << w
	h.flags[w] = 0
	return f
}
