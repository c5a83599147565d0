package pagetable

import "math/rand"

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
// read-only, so runs may share it.
func BuildAddressSpace(dataPages, osPages uint64, cfg OSConfig) *AddressSpace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Regions <= 0 {
		cfg.Regions = 1
	}

	// Physical allocator: sequential runs with random restarts, never
	// handing out the same frame twice. Table pages and data pages
	// interleave in the same pool, like a buddy allocator under load.
	used := make([]bool, osPages)
	next := uint64(rng.Int63n(int64(osPages / 4)))
	allocPPN := func() uint64 {
		if rng.Float64() < cfg.Fragmentation {
			next = uint64(rng.Int63n(int64(osPages)))
		}
		for {
			p := next % osPages
			next++
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	// Huge-page data allocations must be 512-aligned; keep a separate
	// aligned bump pointer for them.
	nextHuge := uint64(0)
	allocHugePPN := func() uint64 {
		for {
			p := nextHuge % osPages
			nextHuge += EntriesPer
			if !used[p] {
				for i := uint64(0); i < EntriesPer; i++ {
					used[p+i] = true
				}
				return p
			}
		}
	}

	// Every table PPN comes from the pool, so a pool-sized directory never
	// regrows.
	t := newTable(allocPPN, cfg.HugePages, osPages)
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
	for _, r := range regions {
		if cfg.HugePages {
			// Round the region to whole 2MB frames.
			for mapped := uint64(0); mapped < r.pages; mapped += EntriesPer {
				t.Map(vpn, allocHugePPN(), r.flags)
				vpn += EntriesPer
			}
			continue
		}
		for p := uint64(0); p < r.pages; p++ {
			flags := r.flags
			if rng.Float64() < cfg.L1FlagNoise {
				flags = oddFlagChoices[rng.Intn(len(oddFlagChoices))]
			}
			t.Map(vpn, allocPPN(), flags)
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
	// would pin the pool-sized used bitmap and the rng for as long as the
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
