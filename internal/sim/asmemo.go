package sim

import (
	"fmt"
	"sync"

	"tmcc/internal/check"
	"tmcc/internal/pagetable"
)

// asKey identifies one pagetable.BuildAddressSpace computation: all of
// its inputs are comparable values.
type asKey struct {
	dataPages, osPages uint64
	cfg                pagetable.OSConfig
}

// builtAS is one native address space with the dense vpn -> ppn table a
// runner derives from it. Both are read-only after build, so every runner
// built from the same inputs shares them; per-run state (PTB states, the
// MC, caches) stays in each Runner.
type builtAS struct {
	key      asKey
	as       *pagetable.AddressSpace
	vpnToPPN []uint64 // offset by the address space's VBase
	// digest covers every PTE and vpnToPPN word at build; set and
	// re-checked only under tmccdebug.
	digest uint64
}

// lastAS is the process-wide address-space memo, in the style of
// workload.SizeModel's but holding a single entry: the most recent native
// build. Repeated builds of one system and designs sharing an OS pool
// (Compresso and TMCC at the same budget) hit it. Keeping only the last
// build means the memo pins nothing beyond what the most recently built
// runner already holds.
var (
	lastASMu sync.Mutex
	lastAS   *builtAS
)

// nativeAddressSpace returns the address space BuildAddressSpace makes
// for the inputs, with its dense vpn -> ppn table, reusing the last build
// when the inputs match it. The results are shared: callers must not
// modify them.
func nativeAddressSpace(dataPages, osPages uint64, cfg pagetable.OSConfig) (*pagetable.AddressSpace, []uint64) {
	key := asKey{dataPages, osPages, cfg}
	lastASMu.Lock()
	b := lastAS
	lastASMu.Unlock()
	if b != nil && b.key == key {
		if check.Enabled {
			check.Invariant("sim: memoized address space unchanged", b.audit)
		}
		return b.as, b.vpnToPPN
	}
	b = &builtAS{key: key, as: pagetable.BuildAddressSpace(dataPages, osPages, cfg)}
	// The page table is static after build, so the per-access radix
	// descent collapses to one load (unmappedPPN marks holes).
	lo, hi := b.as.VPNRange()
	b.vpnToPPN = make([]uint64, hi-lo)
	for i := range b.vpnToPPN {
		b.vpnToPPN[i] = unmappedPPN
		if ppn, ok := b.as.Table.Lookup(lo + uint64(i)); ok {
			b.vpnToPPN[i] = ppn
		}
	}
	if check.Enabled {
		b.digest = b.sum()
	}
	lastASMu.Lock()
	lastAS = b
	lastASMu.Unlock()
	return b.as, b.vpnToPPN
}

// sum is an FNV-style word digest of every PTE of every table page, in
// slot order, followed by every vpnToPPN word.
func (b *builtAS) sum() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	t := b.as.Table
	for slot := 0; slot < t.PTBSlots(); slot++ {
		for _, pte := range t.PTBAt(slot) {
			h = (h ^ pte) * prime
		}
	}
	for _, ppn := range b.vpnToPPN {
		h = (h ^ ppn) * prime
	}
	return h
}

// audit reports a memoized address space that changed since its build: a
// shared table must stay read-only for every runner that uses it.
func (b *builtAS) audit() error {
	if got := b.sum(); got != b.digest {
		return fmt.Errorf("address space %+v: digest %#x, built as %#x", b.key, got, b.digest)
	}
	return nil
}
