package pagetable

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// OSConfig tunes the modeled OS allocator that builds an address space.
// The noise rates are calibrated so a Figure 6 scan of the resulting tables
// reproduces the paper's page-table-dump measurements: 99.94% of L1 PTBs
// and 99.3% of L2 PTBs have identical status bits across all eight entries.
type OSConfig struct {
	Seed int64
	// L1FlagNoise is the per-L1-PTE probability of carrying status bits
	// that differ from its region (guard pages, COW pages, mprotect spots).
	L1FlagNoise float64
	// L2FlagNoise is the per-L2-PTE equivalent (table pages with unusual
	// attributes).
	L2FlagNoise float64
	// Fragmentation is the probability that the physical allocator breaks
	// its sequential run and jumps to a random free area, scattering PPNs.
	Fragmentation float64
	// Regions is how many virtual regions (code, heap arenas, stacks,
	// mmaps) the footprint is split into; flags are uniform inside one.
	Regions int
	// HugePages maps the space with 2MB pages.
	HugePages bool
}

// DefaultOSConfig returns the calibrated allocator model.
func DefaultOSConfig(seed int64) OSConfig {
	return OSConfig{
		Seed:          seed,
		L1FlagNoise:   0.000075,
		L2FlagNoise:   0.0009,
		Fragmentation: 0.02,
		Regions:       24,
	}
}

// AddressSpace is a built program image: the table plus the mapping
// parameters the simulator needs.
type AddressSpace struct {
	Table     *Table
	DataPages uint64 // mapped 4KB data pages
	// VBase is the first mapped virtual page number; regions are laid out
	// contiguously above it (mirroring one large heap plus mmaps).
	VBase uint64
	// OSPages is the size of the OS physical page pool the allocator drew
	// from (sets the PPN width; Section V-A5 truncation depends on it).
	OSPages uint64
	// PPNs is the dense translation of the mapped range: PPNs[vpn-VBase]
	// is the data PPN of every vpn in VPNRange, filled as the build maps
	// it. A built table is static, so a simulator can collapse the
	// per-access radix descent to one bounds check and one load. An entry
	// is 32 bits wide: BuildAddressSpace refuses a pool whose PPNs do not
	// all fit below math.MaxUint32, which stays free as a sentinel.
	PPNs []uint32
}

// regionFlagChoices are the status-bit combinations regions draw from;
// index 0 (normal RW data) dominates, like real heaps.
var regionFlagChoices = []uint64{
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagNX,
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagNX,
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagNX,
	FlagPresent | FlagUser | FlagAccessed,          // code: read-only, executable
	FlagPresent | FlagUser | FlagAccessed | FlagNX, // read-only data
}

// oddFlagChoices are the rare per-page deviations inside a region.
var oddFlagChoices = []uint64{
	FlagPresent | FlagUser | FlagAccessed | FlagNX,             // mprotected read-only
	FlagPresent | FlagWrite | FlagUser | FlagNX,                // not yet accessed
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagNX, // clean (not dirty)
	FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagGlobal | FlagNX,
}

// BuildAddressSpace maps dataPages of virtual memory and returns the
// resulting address space. osPages is the OS physical pool size (>=
// dataPages plus table overhead); PPNs are drawn from it with the
// configured fragmentation. The returned table is frozen: it is
// read-only, so runs may share it. It panics on a pool of more than
// math.MaxUint32 pages, whose PPNs the dense table cannot hold.
func BuildAddressSpace(dataPages, osPages uint64, cfg OSConfig) *AddressSpace {
	if osPages > math.MaxUint32 {
		panic(fmt.Sprintf("pagetable: a pool of %d pages numbers PPNs past the 32-bit dense table", osPages))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Regions <= 0 {
		cfg.Regions = 1
	}

	// Physical allocator: sequential runs with random restarts, never
	// handing out the same frame twice. Table pages and data pages
	// interleave in the same pool, like a buddy allocator under load.
	used := newFrameSet(osPages)
	next := uint64(rng.Int63n(int64(osPages / 4)))
	allocPPN := func() uint64 {
		if rng.Float64() < cfg.Fragmentation {
			next = uint64(rng.Int63n(int64(osPages)))
		}
		p := used.claimFrom(next)
		next = p + 1
		return p
	}
	// Huge-page data allocations must be 512-aligned; keep a separate
	// aligned bump pointer for them. A frame is taken when its first page
	// is free; a free start whose frame runs past the pool ends the build.
	// The pointer cycles through hugeStarts distinct starts (osPages /
	// gcd(osPages, EntriesPer)), and a taken start never frees, so once a
	// whole cycle of them is taken no frame is left.
	nextHuge := uint64(0)
	hugeStarts := osPages >> min(bits.TrailingZeros64(osPages), bits.TrailingZeros64(EntriesPer))
	allocHugePPN := func() uint64 {
		for tried := uint64(0); tried < hugeStarts; tried++ {
			p := nextHuge % osPages
			nextHuge += EntriesPer
			if !used.has(p) {
				if p+EntriesPer > osPages {
					panic(fmt.Sprintf("pagetable: the 2MB frame at page %d runs past a pool of %d pages", p, osPages))
				}
				for i := uint64(0); i < EntriesPer; i++ {
					used.add(p + i)
				}
				return p
			}
		}
		panic(fmt.Sprintf("pagetable: no free 2MB frame left in a pool of %d pages", osPages))
	}

	t := New(allocPPN, cfg.HugePages)
	as := &AddressSpace{Table: t, DataPages: dataPages, VBase: 0x10000, OSPages: osPages}

	// Carve the footprint into regions with uniform flags.
	type region struct {
		pages uint64
		flags uint64
	}
	regions := make([]region, cfg.Regions)
	remaining := dataPages
	for i := range regions {
		share := remaining / uint64(cfg.Regions-i)
		if i == len(regions)-1 {
			share = remaining
		}
		regions[i] = region{pages: share, flags: regionFlagChoices[rng.Intn(len(regionFlagChoices))]}
		remaining -= share
	}

	vpn := as.VBase
	if cfg.HugePages {
		vpn = vpn / EntriesPer * EntriesPer
		as.VBase = vpn
	}
	lo, hi := as.VPNRange()
	as.PPNs = make([]uint32, hi-lo)
	for _, r := range regions {
		if cfg.HugePages {
			// Round the region to whole 2MB frames. Rounding each region
			// can map past VPNRange; the dense table stops at its end.
			for mapped := uint64(0); mapped < r.pages; mapped += EntriesPer {
				ppn := allocHugePPN()
				t.Map(vpn, ppn, r.flags)
				for i := uint64(0); i < EntriesPer && vpn+i < hi; i++ {
					as.PPNs[vpn+i-lo] = uint32(ppn + i)
				}
				vpn += EntriesPer
			}
			continue
		}
		for p := uint64(0); p < r.pages; p++ {
			flags := r.flags
			if rng.Float64() < cfg.L1FlagNoise {
				flags = oddFlagChoices[rng.Intn(len(oddFlagChoices))]
			}
			ppn := allocPPN()
			t.Map(vpn, ppn, flags)
			as.PPNs[vpn-lo] = uint32(ppn)
			vpn++
		}
	}

	// Apply L2-level noise: revisit the L2 PTEs (pointing to L1 table
	// pages) and perturb a small fraction, as real kernels do for table
	// pages with special attributes.
	if !cfg.HugePages && cfg.L2FlagNoise > 0 {
		t.perturbLevel(2, cfg.L2FlagNoise, rng)
	}
	// Freeze the table. This also releases the allocator's closure, which
	// would pin the pool-sized frame set and the rng for as long as the
	// table lives.
	t.alloc = nil
	return as
}

// perturbLevel flips the status bits of a fraction of PTEs at the given
// table level (2 = entries pointing at L1 table pages).
func (t *Table) perturbLevel(level int, rate float64, rng *rand.Rand) {
	var rec func(n *node, l int)
	rec = func(n *node, l int) {
		if l == level {
			for i := range n.ptes {
				if n.ptes[i]&FlagPresent != 0 && rng.Float64() < rate {
					n.ptes[i] |= FlagPCD // an unusual cacheability attribute
				}
			}
			return
		}
		for _, c := range n.children {
			if c != nil {
				rec(c, l-1)
			}
		}
	}
	rec(t.root, Levels)
}

// VPNRange returns the mapped virtual page number range [VBase, VBase+n).
func (as *AddressSpace) VPNRange() (lo, hi uint64) {
	n := as.DataPages
	if as.Table.HugePages() {
		n = (n + EntriesPer - 1) / EntriesPer * EntriesPer
	}
	return as.VBase, as.VBase + n
}

// frameSet is the allocator's set of taken frames: one bit per page of
// the pool, the bits past the pool preset so a scan never returns them.
type frameSet []uint64

const setWord = 64 // frames per frameSet word

func newFrameSet(pages uint64) frameSet {
	s := make(frameSet, (pages+setWord-1)/setWord)
	if tail := pages % setWord; tail != 0 {
		s[len(s)-1] = ^uint64(0) << tail
	}
	return s
}

func (s frameSet) has(p uint64) bool { return s[p/setWord]&(1<<(p%setWord)) != 0 }
func (s frameSet) add(p uint64)      { s[p/setWord] |= 1 << (p % setWord) }

// claimFrom takes and returns the first free frame at or after p,
// wrapping past the end of the pool to frame 0. It panics when every
// frame is taken.
func (s frameSet) claimFrom(p uint64) uint64 {
	w := p / setWord
	if w >= uint64(len(s)) {
		w, p = 0, 0
	}
	free := ^s[w] &^ (1<<(p%setWord) - 1) // free frames at or after p in word w
	for scanned := 0; free == 0; scanned++ {
		if scanned == len(s) {
			panic("pagetable: OS page pool exhausted")
		}
		if w++; w == uint64(len(s)) {
			w = 0
		}
		free = ^s[w]
	}
	s[w] |= free & -free
	return w*setWord + uint64(bits.TrailingZeros64(free))
}
