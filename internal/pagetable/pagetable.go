// Package pagetable models an x86-64 4-level radix page table built by a
// modeled OS memory allocator (Section II background; Figures 6/7). The
// table is held functionally (Go structures mirroring the 4KB table pages),
// but every table page has a real physical page number, so a page walk
// yields the physical addresses of the four 64B page table blocks (PTBs)
// the hardware walker would fetch — those addresses then flow through the
// simulated cache hierarchy and memory controller like any other access.
package pagetable

import (
	"fmt"
	"sort"
)

// Page-table geometry (x86-64, 4KB pages).
const (
	Levels        = 4
	EntriesPer    = 512 // PTEs per table page
	PTEsPerPTB    = 8   // a PTB is one 64B cacheline
	PageShift     = 12
	PageSizeBytes = 1 << PageShift
	levelBits     = 9
	PTESize       = 8
	PTBSize       = 64
	PTBsPerPage   = EntriesPer / PTEsPerPTB // 64
)

// PTE status-bit layout (Intel SDM Vol 3, Figure 4-11): the low 12 bits and
// the high 12 bits are status/permission bits ("24 status bits"), bits
// 12..51 hold the 40-bit physical page number.
const (
	FlagPresent  = 1 << 0
	FlagWrite    = 1 << 1
	FlagUser     = 1 << 2
	FlagPWT      = 1 << 3
	FlagPCD      = 1 << 4
	FlagAccessed = 1 << 5
	FlagDirty    = 1 << 6
	FlagPS       = 1 << 7 // huge page at L2/L3
	FlagGlobal   = 1 << 8
	FlagNX       = 1 << 63

	ppnShift = 12
	ppnMask  = (uint64(1)<<40 - 1) << ppnShift
)

// StatusBits extracts the 24 status bits of a raw PTE (low 12 + high 12).
func StatusBits(pte uint64) uint32 {
	return uint32(pte&0xfff) | uint32(pte>>52)<<12
}

// PPN extracts the 40-bit physical page number.
func PPN(pte uint64) uint64 { return (pte & ppnMask) >> ppnShift }

// MakePTE assembles a raw PTE.
func MakePTE(ppn uint64, flags uint64) uint64 {
	return flags&^ppnMask | ppn<<ppnShift&ppnMask
}

// node is one 4KB table page.
type node struct {
	ppn      uint64
	idx      int32 // dense creation-order index, for flat per-PTB state
	ptes     [EntriesPer]uint64
	children [EntriesPer]*node // nil at level 1
}

// Table is a 4-level page table for one address space.
type Table struct {
	root *node
	// alloc hands out PPNs for new table pages. BuildAddressSpace nils it
	// to freeze the table it returns: Map then panics, so the built table
	// is read-only and runs may share it.
	alloc   func() uint64
	hugePgs bool // map at 2MB granularity (Section VIII)
	// nodes lists the table pages in creation order: nodes[n.idx] == n.
	nodes []*node
	// byPPN is a PPN-indexed directory of table pages holding node idx+1
	// (0 marks a data page). Table PPNs are drawn from a bounded OS pool,
	// so directory probes on the walk/repair hot path are one bounds check
	// and one load, and the pointer-free slice costs the GC nothing to
	// scan. BuildAddressSpace sizes it to the pool once; New grows it on
	// demand.
	byPPN []int32
}

// New creates an empty table; alloc hands out PPNs for the table pages
// themselves (they live in physical memory too). hugePages selects 2MB
// mappings, which terminate the walk at L2.
func New(alloc func() uint64, hugePages bool) *Table { return newTable(alloc, hugePages, 0) }

// newTable is New with the directory presized to dirLen PPNs, so a table
// whose page PPNs all fall below dirLen never regrows it.
func newTable(alloc func() uint64, hugePages bool, dirLen uint64) *Table {
	t := &Table{alloc: alloc, hugePgs: hugePages, byPPN: make([]int32, dirLen)}
	t.root = &node{ppn: alloc()}
	t.addNode(t.root)
	return t
}

// addNode registers a freshly allocated table page in the dense directory.
func (t *Table) addNode(n *node) {
	n.idx = int32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	if n.ppn >= uint64(len(t.byPPN)) {
		grown := make([]int32, n.ppn+n.ppn/2+64)
		copy(grown, t.byPPN)
		t.byPPN = grown
	}
	t.byPPN[n.ppn] = n.idx + 1
}

// TablePages reports how many 4KB pages the table itself occupies.
func (t *Table) TablePages() int { return len(t.nodes) }

// HugePages reports the mapping granularity.
func (t *Table) HugePages() bool { return t.hugePgs }

// leafLevel is the level whose PTEs map data pages (1 for 4KB, 2 for 2MB).
func (t *Table) leafLevel() int {
	if t.hugePgs {
		return 2
	}
	return 1
}

func index(vpn uint64, level int) int {
	// level 4 uses the top 9 bits of the 36-bit VPN, level 1 the bottom.
	return int(vpn >> (uint(level-1) * levelBits) & (EntriesPer - 1))
}

// Map installs a translation vpn -> ppn with the given PTE flags. For huge
// pages, vpn and ppn are still 4KB-page numbers but must be 512-aligned.
func (t *Table) Map(vpn, ppn uint64, flags uint64) {
	if t.alloc == nil {
		panic(fmt.Sprintf("pagetable: Map(%#x) on a frozen table", vpn))
	}
	leaf := t.leafLevel()
	if t.hugePgs && (vpn%EntriesPer != 0 || ppn%EntriesPer != 0) {
		panic("pagetable: huge-page mapping not 2MB aligned")
	}
	n := t.root
	for level := Levels; level > leaf; level-- {
		i := index(vpn, level)
		if n.children[i] == nil {
			child := &node{ppn: t.alloc()}
			n.children[i] = child
			n.ptes[i] = MakePTE(child.ppn, FlagPresent|FlagWrite|FlagUser|FlagAccessed)
			t.addNode(child)
		}
		n = n.children[i]
	}
	i := index(vpn, leaf)
	if t.hugePgs {
		flags |= FlagPS
		ppn = ppn / EntriesPer // store the 2MB frame number
		n.ptes[i] = MakePTE(ppn<<levelBits, flags)
	} else {
		n.ptes[i] = MakePTE(ppn, flags)
	}
}

// Step describes one page-walk access: the physical address of the 64B PTB
// fetched and the raw PTE the walker reads from it.
type Step struct {
	Level   int    // 4 (root) down to the leaf
	PTBAddr uint64 // physical byte address of the 64B PTB
	PTE     uint64 // the entry consumed at this level
	// NextPPN is the PPN the PTE points at: the next table page, or the
	// data page at the leaf.
	NextPPN uint64
}

// Walk performs a full page walk for vpn, returning the steps in walker
// order and the final data PPN. ok is false for unmapped addresses.
func (t *Table) Walk(vpn uint64) (steps []Step, ppn uint64, ok bool) {
	return t.WalkAppend(nil, vpn)
}

// WalkAppend is Walk with a caller-supplied step buffer: the steps are
// appended to buf[:0], so a reused buffer with capacity Levels makes the
// walk allocation-free (the simulator's access loop depends on this).
func (t *Table) WalkAppend(buf []Step, vpn uint64) (steps []Step, ppn uint64, ok bool) {
	steps = buf[:0]
	leaf := t.leafLevel()
	n := t.root
	for level := Levels; level >= leaf; level-- {
		i := index(vpn, level)
		pte := n.ptes[i]
		if pte&FlagPresent == 0 {
			return nil, 0, false
		}
		next := PPN(pte)
		if level == leaf && t.hugePgs {
			next = next + vpn%EntriesPer // block within the 2MB frame
		}
		steps = append(steps, Step{
			Level:   level,
			PTBAddr: n.ppn<<PageShift + uint64(i/PTEsPerPTB*PTBSize),
			PTE:     pte,
			NextPPN: next,
		})
		if level == leaf {
			return steps, next, true
		}
		n = n.children[i]
	}
	return nil, 0, false
}

// PTB is one 64B block of eight PTEs, with its physical address and level,
// as used by the Figure 6 scan and by PTB compression.
type PTB struct {
	Level int
	Addr  uint64
	PTEs  [PTEsPerPTB]uint64
}

// PTBs calls fn for every PTB in the table that contains at least one
// present entry, level by level (leaf level first, as Figure 6 reports L1
// and L2 separately).
func (t *Table) PTBs(fn func(PTB)) {
	var rec func(n *node, level int)
	leaf := t.leafLevel()
	rec = func(n *node, level int) {
		for b := 0; b < PTBsPerPage; b++ {
			var ptb PTB
			ptb.Level = level
			ptb.Addr = n.ppn<<PageShift + uint64(b*PTBSize)
			any := false
			for j := 0; j < PTEsPerPTB; j++ {
				pte := n.ptes[b*PTEsPerPTB+j]
				ptb.PTEs[j] = pte
				if pte&FlagPresent != 0 {
					any = true
				}
			}
			if any {
				fn(ptb)
			}
		}
		if level > leaf {
			for _, c := range n.children {
				if c != nil {
					rec(c, level-1)
				}
			}
		}
	}
	rec(t.root, Levels)
}

// TablePagePPNs lists the physical page numbers of every page-table page
// (the table occupies physical memory too; the MC must place and translate
// those pages like any others).
func (t *Table) TablePagePPNs() []uint64 {
	out := make([]uint64, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.ppn
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PTBSlots reports the size of the dense PTB-slot space: every table page
// contributes PTBsPerPage consecutive slots in creation order. The table
// is static once built, so per-PTB simulator state can live in a flat
// slice indexed by PTBSlot instead of a map keyed by address.
func (t *Table) PTBSlots() int { return len(t.nodes) * PTBsPerPage }

// PTBSlot maps the physical byte address of a PTB (as produced in walk
// steps) to its dense slot index; ok=false when addr does not fall in a
// table page.
func (t *Table) PTBSlot(addr uint64) (int, bool) {
	ppn := addr >> PageShift
	if ppn >= uint64(len(t.byPPN)) || t.byPPN[ppn] == 0 {
		return 0, false
	}
	return int(t.byPPN[ppn]-1)*PTBsPerPage + int(addr%PageSizeBytes)/PTBSize, true
}

// PTBAt returns the eight raw PTEs of the PTB at a dense slot (as PTBSlot
// returns it) in place, with no copy and no directory probe: table pages
// are listed in creation order, matching the idx each node carries. The
// table is read-only once built, so callers must not write through the
// pointer. It panics for a slot outside [0, PTBSlots()).
func (t *Table) PTBAt(slot int) *[PTEsPerPTB]uint64 {
	b := slot % PTBsPerPage * PTEsPerPTB
	return (*[PTEsPerPTB]uint64)(t.nodes[slot/PTBsPerPage].ptes[b : b+PTEsPerPTB])
}

// Lookup returns the data PPN for vpn without recording walk steps. It
// descends the radix directly — no step slice, no allocation — because
// the simulator translates on every access.
func (t *Table) Lookup(vpn uint64) (uint64, bool) {
	leaf := t.leafLevel()
	n := t.root
	for level := Levels; ; level-- {
		i := index(vpn, level)
		pte := n.ptes[i]
		if pte&FlagPresent == 0 {
			return 0, false
		}
		if level == leaf {
			next := PPN(pte)
			if t.hugePgs {
				next = next + vpn%EntriesPer
			}
			return next, true
		}
		n = n.children[i]
	}
}

// MustLookup panics on unmapped vpn; for tests and trace plumbing.
func (t *Table) MustLookup(vpn uint64) uint64 {
	ppn, ok := t.Lookup(vpn)
	if !ok {
		panic(fmt.Sprintf("pagetable: vpn %#x unmapped", vpn))
	}
	return ppn
}
