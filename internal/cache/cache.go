// Package cache models the on-chip cache hierarchy of Table III: per-core
// L1 and inclusive L2, a shared exclusive L3, plus the simple next-line and
// stride prefetchers the paper simulates. Caches here are tag stores with
// LRU replacement — the simulator composes their hit/miss outcomes with the
// fixed hit latencies from Table III; data values live elsewhere (the
// simulation is execution-driven for addresses, functional for contents).
package cache

// Cache is a set-associative LRU tag store over 64B block numbers. A
// probe (Lookup or Probe) returns the line's way slot, and every follow-up
// on that line (flags, invalidation) takes the slot, so an access scans a
// set's tags once.
type Cache struct {
	sets  uint64
	ways  int
	tags  []uint64 // +1 encoding, 0 = invalid
	stamp []uint64
	flags []uint8
	clock uint64

	Hits   uint64
	Misses uint64
}

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
	return lines / min(ways, lines)
}

// New builds a cache of the given total size in bytes with 64B lines.
func New(sizeBytes, ways int) *Cache {
	lines := sizeBytes / 64
	ways = min(ways, lines)
	return &Cache{
		sets:  uint64(Sets(sizeBytes, ways)),
		ways:  ways,
		tags:  make([]uint64, lines),
		stamp: make([]uint64, lines),
		flags: make([]uint8, lines),
	}
}

// set returns the first slot of block's set.
func (c *Cache) set(block uint64) int { return int(block%c.sets) * c.ways }

// Probe returns block's slot, or -1, without touching recency or counters.
func (c *Cache) Probe(block uint64) int {
	base, k := c.set(block), block+1
	for w, t := range c.tags[base : base+c.ways] {
		if t == k {
			return base + w
		}
	}
	return -1
}

// Lookup probes for block: on a hit it refreshes recency and returns the
// line's slot, on a miss it returns -1.
func (c *Cache) Lookup(block uint64) int {
	c.clock++
	i := c.Probe(block)
	if i < 0 {
		c.Misses++
		return -1
	}
	c.stamp[i] = c.clock
	c.Hits++
	return i
}

// FlagsAt returns the flags of the line in slot.
func (c *Cache) FlagsAt(slot int) uint8 { return c.flags[slot] }

// SetFlagsAt overwrites the flags of the line in slot.
func (c *Cache) SetFlagsAt(slot int, f uint8) { c.flags[slot] = f }

// OrFlagsAt sets bits on the line in slot.
func (c *Cache) OrFlagsAt(slot int, f uint8) { c.flags[slot] |= f }

// Victim describes an evicted line.
type Victim struct {
	Block uint64
	Flags uint8
	Valid bool
}

// Insert fills block (with flags) into the set's first invalid way, else
// its least recently used one, and returns the victim, if a valid line
// was displaced.
func (c *Cache) Insert(block uint64, flags uint8) Victim {
	base := c.set(block)
	tags := c.tags[base : base+c.ways]
	stamp := c.stamp[base : base+len(tags)]
	v, oldest := 0, stamp[0]
	for w, t := range tags {
		if t == 0 {
			v = w
			break
		}
		if s := stamp[w]; s < oldest {
			v, oldest = w, s
		}
	}
	var out Victim
	if tags[v] != 0 && tags[v] != block+1 {
		out = Victim{Block: tags[v] - 1, Flags: c.flags[base+v], Valid: true}
	}
	c.clock++
	tags[v] = block + 1
	stamp[v] = c.clock
	c.flags[base+v] = flags
	return out
}

// InvalidateAt removes the line in slot (for exclusive-L3 promotion),
// returning its flags.
func (c *Cache) InvalidateAt(slot int) uint8 {
	f := c.flags[slot]
	c.tags[slot] = 0
	c.flags[slot] = 0
	return f
}

// Lines returns capacity in 64B lines.
func (c *Cache) Lines() int { return int(c.sets) * c.ways }
