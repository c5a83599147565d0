package sim

import (
	"tmcc/internal/config"
	"tmcc/internal/pagetable"
)

// Virtualization support (Figure 12b): under a VM, a guest page walk is a
// 2D walk — every guest PTB lives at a guest-physical address that itself
// needs a host walk, and the final guest-physical data address needs one
// more. All host walks use host PTBs, so TMCC's embedded CTEs accelerate
// every constituent walk exactly as in the native case ("TMCC carries out
// the same actions during each page walk within a 2D page walk").
//
// The model: the trace's virtual pages map through a guest page table to
// guest-physical pages, which map through a host page table to host
// -physical pages; the memory controller manages host-physical memory.
// Nested-TLB hits skip the whole 2D walk; a per-core gpa-walk cache lets
// individual host walks start below L4, as in hardware nested paging.

// buildVirt constructs the guest and host address spaces. The host maps
// every guest-physical page (data + guest table pages); the MC's OS pool is
// the host pool. Both functional translation tables are dense slices filled
// eagerly here — the tables are static after build, so per-access probes
// reduce to a bounds check and a load.
func buildVirt(r *Runner, osPages uint64, seed int64) {
	spec := r.spec
	// Guest table: vpn -> gpn over a guest-physical pool sized to the
	// footprint plus guest page tables.
	guestPool := spec.FootprintPages + spec.FootprintPages/64 + 2048 //tmcclint:allow magic-literal (table-page slack heuristic)
	gCfg := pagetable.DefaultOSConfig(seed + 5)
	guest := pagetable.BuildAddressSpace(spec.FootprintPages, guestPool, gCfg)
	// Host table: gpn -> hpn. Every guest-physical page is host-mapped;
	// the host pool is the MC's OS space.
	hCfg := pagetable.DefaultOSConfig(seed + 6)
	host := pagetable.BuildAddressSpace(guestPool, osPages, hCfg)

	r.guest = guest
	r.as = host // the "physical" space the MC sees is host-physical

	// The host maps exactly the guestPool guest-physical pages.
	hostLo, _ := host.VPNRange()
	r.gpaToHost = host.Table.DensePPNs(hostLo, guestPool, unmappedPPN)
	guestLo, guestHi := guest.VPNRange()
	r.vlo = guestLo
	r.vpnToPPN = guest.Table.DensePPNs(guestLo, guestHi-guestLo, unmappedPPN)
	for i, gpn := range r.vpnToPPN {
		if gpn != unmappedPPN {
			r.vpnToPPN[i] = translate(r.gpaToHost, 0, gpn)
		}
	}
}

// hostPPN resolves a guest-physical page to its host-physical page
// (functional; the timing cost is modeled by walk2D).
func (r *Runner) hostPPN(gpn uint64) (uint64, bool) {
	if gpn >= uint64(len(r.gpaToHost)) || r.gpaToHost[gpn] == unmappedPPN {
		return 0, false
	}
	return r.gpaToHost[gpn], true
}

// hostWalk performs one constituent host walk for a guest-physical page:
// the native walk over the host table (host PTBs through the hierarchy
// with TMCC's embedding machinery), then the walk caches are filled.
func (r *Runner) hostWalk(c *core, t config.Time, gpn uint64) config.Time {
	if c.gwc.Lookup(gpn) {
		return t // nested walk-cache hit: translation is at hand
	}
	lo, _ := r.as.VPNRange()
	vpn := lo + gpn
	t = r.walk(c, t, vpn)
	c.wc.FillFromWalk(vpn)
	c.gwc.Insert(gpn)
	return t
}

// walk2D performs the full nested walk for a guest-virtual page and
// returns (completion time, final host PPN of the data page). Guest steps
// use their own buffer: they stay live across the nested host walks, which
// reuse the host walk buffer.
func (r *Runner) walk2D(c *core, t config.Time, vpn uint64) (config.Time, uint64, bool) {
	gsteps, gpn, ok := r.guest.Table.WalkAppend(r.gwalkBuf, vpn)
	if !ok {
		return t, 0, false
	}
	// Each guest level: host-walk the gPTB's guest-physical page, then
	// fetch the gPTB itself (a normal data block in host memory).
	for _, s := range gsteps {
		gptbGPN := s.PTBAddr >> 12
		t = r.hostWalk(c, t, gptbGPN)
		hp, ok := r.hostPPN(gptbGPN)
		if !ok {
			continue
		}
		hostAddr := hp<<12 + s.PTBAddr&4095
		if r.recording {
			r.m.WalkRefs++
		}
		t = r.memAccess(c, t, hostAddr/config.BlockSize, false, true, true)
	}
	// Final host walk for the data page itself.
	t = r.hostWalk(c, t, gpn)
	hp, ok := r.hostPPN(gpn)
	return t, hp, ok
}

// virtTablePPNs lists the host pages of every table page: guest table
// pages (they live in guest-physical space) and host table pages, which
// placement treats as hot.
func (r *Runner) virtTablePPNs() []uint64 {
	var ppns []uint64
	for _, gpn := range r.guest.Table.TablePagePPNs() {
		if hp, ok := r.hostPPN(gpn); ok {
			ppns = append(ppns, hp)
		}
	}
	return append(ppns, r.as.Table.TablePagePPNs()...)
}
