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

// builtAS is one native address space, built or in flight. It is
// read-only once built (the table and its dense vpn -> ppn translation),
// so every runner built from the same inputs shares it; per-run state
// (PTB states, the MC, caches) stays in each Runner.
type builtAS struct {
	key asKey
	// done is closed when the build ends; as is set by then unless the
	// build panicked.
	done chan struct{}
	as   *pagetable.AddressSpace
	// digest covers every PTE and dense translation word at build; set and
	// re-checked only under tmccdebug.
	digest uint64
}

// lastAS is the process-wide address-space memo, in the style of
// workload.SizeModel's but retaining a single entry: the most recently
// finished native build. Repeated builds of one system and designs
// sharing an OS pool (Compresso and TMCC at the same budget) hit it.
// Retaining one entry means the memo pins nothing beyond what the most
// recently built runner already holds. building lists the builds in
// flight, so a caller whose key is being built (engine workers often need
// one key at once) waits for that build instead of repeating it; a build
// leaves it when it ends.
//
// buildAddressSpace is the builder the memo runs; tests swap it to count
// or fail builds.
var (
	asMu              sync.Mutex
	lastAS            *builtAS
	building          = map[asKey]*builtAS{}
	buildAddressSpace = pagetable.BuildAddressSpace
)

// nativeAddressSpace returns the address space BuildAddressSpace makes
// for the inputs, reusing the last build when the inputs match it and
// waiting for a build of the same inputs in flight. The result is shared:
// callers must not modify it.
func nativeAddressSpace(dataPages, osPages uint64, cfg pagetable.OSConfig) *pagetable.AddressSpace {
	key := asKey{dataPages, osPages, cfg}
	for {
		asMu.Lock()
		b := lastAS
		if b == nil || b.key != key {
			b = building[key]
		}
		if b == nil {
			b = &builtAS{key: key, done: make(chan struct{})}
			building[key] = b
			asMu.Unlock()
			return b.build()
		}
		asMu.Unlock()
		<-b.done
		if b.as != nil {
			if check.Enabled {
				check.Invariant("sim: memoized address space unchanged", b.audit)
			}
			return b.as
		}
		// The build panicked and left no entry: start another.
	}
}

// build runs the entry's build, retains it as the memo's entry, and
// releases its waiters. A build that panics is not retained.
func (b *builtAS) build() *pagetable.AddressSpace {
	defer func() {
		asMu.Lock()
		delete(building, b.key)
		if b.as != nil {
			lastAS = b
		}
		asMu.Unlock()
		close(b.done)
	}()
	as := buildAddressSpace(b.key.dataPages, b.key.osPages, b.key.cfg)
	if check.Enabled {
		b.digest = sumAS(as)
	}
	b.as = as
	return as
}

// sumAS is an FNV-style word digest of every PTE of every table page, in
// slot order, followed by every dense translation word.
func sumAS(as *pagetable.AddressSpace) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	t := as.Table
	for slot := 0; slot < t.PTBSlots(); slot++ {
		for _, pte := range t.PTBAt(slot) {
			h = (h ^ pte) * prime
		}
	}
	for _, ppn := range as.PPNs {
		h = (h ^ uint64(ppn)) * prime
	}
	return h
}

// audit reports a memoized address space that changed since its build: a
// shared table must stay read-only for every runner that uses it.
func (b *builtAS) audit() error {
	if got := sumAS(b.as); got != b.digest {
		return fmt.Errorf("address space %+v: digest %#x, built as %#x", b.key, got, b.digest)
	}
	return nil
}
