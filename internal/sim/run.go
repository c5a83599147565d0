package sim

import (
	"fmt"

	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/ctecache"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/pagetable"
	"tmcc/internal/workload"
)

// FlagPrefetched marks lines brought in by a prefetcher (for the
// automatic-turn-off accuracy accounting).
const flagPrefetched = cache.FlagCompressedPTB << 1

// Run executes warmup then measurement and returns the metrics. A
// non-nil error means the run could not complete — today that is the MC's
// sticky ErrCapacityExhausted, raised when the pressure controller ran
// out of degradation rungs; the partially-filled metrics accompany it for
// diagnosis but must not be reported as results.
func (r *Runner) Run() (Metrics, error) {
	r.recording = false
	w0 := r.maxCoreTime()
	r.runAccesses(r.opt.WarmupAccesses)
	r.tr.Emit(obs.CatPhase, "warmup", 0, w0, r.maxCoreTime())
	r.resetStats()
	r.recording = true
	start := r.maxCoreTime()
	r.runAccesses(r.opt.MeasureAccesses)
	end := r.maxCoreTime()
	r.tr.Emit(obs.CatPhase, "measure", 0, start, end)

	r.m.Elapsed = end - start
	r.m.Cycles = uint64(config.CyclesIn(r.m.Elapsed, r.cycle))
	r.m.MC = r.mcc.StatsSnapshot()
	r.m.Used = r.mcc.UsedPages()
	d := r.mcc.DRAM()
	r.m.DRAMReads = d.Stats.Reads
	r.m.DRAMWrites = d.Stats.Writes
	r.m.BusUtilization = d.BusUtilization(r.m.Elapsed)
	r.m.RowHitRate = d.RowHitRate()
	// Fold the run into the shared recorders. The final residency sweep
	// mirrors the timeline's final partial window: short runs that never
	// cross a sampling edge still sample residency once, at end state.
	r.mcc.SampleResidency()
	r.view.Close()
	if err := r.mcc.Err(); err != nil {
		return r.m, fmt.Errorf("sim: %s/%s aborted: %w", r.opt.Benchmark, r.opt.Kind, err)
	}
	return r.m, nil
}

func (r *Runner) maxCoreTime() config.Time {
	var t config.Time
	for _, c := range r.cores {
		if c.time > t {
			t = c.time
		}
	}
	return t
}

func (r *Runner) resetStats() {
	// The run view folds the warmup's counts in before the reset zeroes
	// Metrics and mc.Stats, so the mc.* counters stay lifetime.
	r.view.Rebase(func() {
		r.m = Metrics{}
		r.mcc.ResetStats()
	})
	// Align cores so the measured window starts together.
	t := r.maxCoreTime()
	for _, c := range r.cores {
		c.time = t
	}
}

// runAccesses executes n trace records, batch-paced: the sticky capacity
// error is checked once per batchSize steps (it only transitions once, so a
// mid-run exhaustion still stops within one batch), and the core with the
// earliest clock comes from a binary min-heap instead of a linear scan.
func (r *Runner) runAccesses(n int) {
	if r.feed == nil {
		r.startProducer()
	}
	r.heapInit()
	for done := 0; done < n; {
		if r.mcc.Err() != nil {
			// Capacity exhausted mid-run: further accesses would use
			// unreliable placements. Stop here; Run surfaces the error.
			return
		}
		chunk := batchSize
		if rem := n - done; rem < chunk {
			chunk = rem
		}
		for i := 0; i < chunk; i++ {
			c := r.heap[0]
			r.step(c)
			// step strictly advances c.time, so re-sinking the root
			// restores heap order.
			r.siftDown(0)
		}
		done += chunk
		// The per-batch hook epilogue. The heap root carries the earliest
		// core clock, which is monotone non-decreasing across batches — a
		// safe window-edge probe. Each hook is one branch when disarmed.
		now := r.heap[0].time
		if r.view.Advance(now) {
			// A heatmap sampling edge passed: sweep page residency.
			r.mcc.SampleResidency()
		}
		if r.rasCTE != nil {
			r.patrolCTE(now)
		}
	}
}

// heapInit (re)builds the issue heap over the cores by (time, id). It runs
// at the start of every runAccesses because resetStats realigns the clocks
// between warmup and measurement.
func (r *Runner) heapInit() {
	r.heap = append(r.heap[:0], r.cores...)
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
}

// siftDown restores the min-heap property from index i downward.
func (r *Runner) siftDown(i int) {
	h := r.heap
	n := len(h)
	for {
		m := i
		if l := 2*i + 1; l < n && h[l].before(h[m]) {
			m = l
		}
		if rt := 2*i + 2; rt < n && h[rt].before(h[m]) {
			m = rt
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// step executes one trace record on core c.
func (r *Runner) step(c *core) {
	b := c.batch
	if b.pos == batchSize {
		b = r.nextBatch(c)
	}
	i := b.pos
	b.pos++
	vaddr := b.vaddr[i]
	ppn := b.ppn[i]
	gap := int(b.gap[i])
	write := b.write[i]
	dep := b.dep[i]

	// Non-memory instructions retire at the issue width.
	c.time += config.Time(gap) * r.cycle / config.Time(r.sys.CPU.Width)
	if r.recording {
		r.m.Instructions += uint64(gap) + 1
		r.m.MemAccesses++
		if write {
			r.m.Stores++
		}
	}

	issue := c.time
	// Outstanding-miss window: the slot used MaxMisses accesses ago must
	// have drained.
	if c.mshr[c.next] > issue {
		issue = c.mshr[c.next]
	}
	// Dependent accesses (pointer chases, neighbor walks) wait for the
	// load that produced their address.
	if dep && c.dep > issue {
		issue = c.dep
	}

	vpn := vaddr >> 12
	blockOff := int(vaddr>>6) & 63
	t := issue
	walkRelated := false

	if !c.tlb.Lookup(vpn) {
		walkRelated = true
		if r.recording {
			r.m.TLBMisses++
			r.m.Walks++
		}
		wStart := t
		name := "walk1d"
		if r.opt.Virtualized {
			t, _, _ = r.walk2D(c, t, vpn)
			name = "walk2d"
		} else {
			t = r.walk(c, t, vpn)
			c.wc.FillFromWalk(vpn)
		}
		r.tr.Emit(obs.CatWalk, name, c.id, wStart, t)
		c.tlb.Insert(vpn)
		if r.attrOn() {
			r.attrWalk = t - wStart
		}
	}

	if ppn == unmappedPPN {
		// Unmapped (should not happen): skip. Drop any pending walk time
		// so it cannot leak into the next access's breakdown.
		r.attrWalk = 0
		c.time = t
		return
	}
	block := ppn*config.BlocksPage + uint64(blockOff)
	done := r.memAccess(c, t, block, write, false, walkRelated)
	if dep {
		c.dep = done
	}

	// Loads block the window; stores drain via the store buffer but still
	// occupy the miss register.
	c.mshr[c.next] = done
	c.next = (c.next + 1) % len(c.mshr)
	// The core advances past the issue point; it only stalls when the
	// window fills (handled above through mshr).
	c.time = issue + r.cycle
}

// Steps runs n accesses outside Run's phase structure; benchmarks drive
// the measured loop through it.
func (r *Runner) Steps(n int) { r.runAccesses(n) }

// walk performs the page walk for vpn, fetching PTBs through the hierarchy
// serially; returns the completion time.
func (r *Runner) walk(c *core, t config.Time, vpn uint64) config.Time {
	startLevel := c.wc.WalkStart(vpn)
	steps, _, ok := r.as.Table.WalkAppend(r.walkBuf, vpn)
	if !ok {
		return t
	}
	for _, s := range steps {
		if s.Level > startLevel {
			continue
		}
		if r.recording {
			r.m.WalkRefs++
		}
		block := s.PTBAddr / config.BlockSize
		t = r.memAccess(c, t, block, false, true, true)
		if r.embed {
			r.loadCTEBuffer(c, s.PTBAddr)
		}
	}
	return t
}

// heat stamps one recorded access on the heatmap, gated on the same
// recording flag as attribution so the per-class heat totals conserve
// exactly against the lifetime attr class counts.
func (r *Runner) heat(block uint64, cl attr.Class) {
	if r.view == nil || !r.recording {
		return
	}
	r.view.Access(block/config.BlocksPage, cl)
}

// memAccess sends one 64B access through L1/L2/L3/MC and returns when the
// data is available to the requester.
func (r *Runner) memAccess(c *core, t config.Time, block uint64, write, isPTB, walkRelated bool) config.Time {
	// Spatial heat: exactly one stamp per access, hit or miss, mirroring
	// the one attr record every path below performs.
	if isPTB {
		r.heat(block, attr.ClassPTB)
	} else {
		r.heat(block, attr.ClassDemand)
	}
	l1Lat := r.sys.Cache.L1Cycles.Dur(r.cycle)
	l2Lat := l1Lat + r.sys.Cache.L2Cycles.Dur(r.cycle)
	l3Lat := l2Lat + r.sys.Cache.L3Cycles.Dur(r.cycle)

	if !isPTB {
		if s := c.l1.Lookup(block); s >= 0 {
			if write {
				c.l1.OrFlagsAt(s, cache.FlagDirty)
				// L2 does not back-invalidate L1, so the line may be gone.
				if s2 := c.l2.Probe(block); s2 >= 0 {
					c.l2.OrFlagsAt(s2, cache.FlagDirty)
				}
			}
			r.attrCacheHit(isPTB, l1Lat)
			return t + l1Lat
		}
	}
	if s := c.l2.Lookup(block); s >= 0 {
		if f := c.l2.FlagsAt(s); f&flagPrefetched != 0 {
			c.throttle.Useful()
			c.l2.SetFlagsAt(s, f&^flagPrefetched)
		}
		if write {
			c.l2.OrFlagsAt(s, cache.FlagDirty)
		}
		r.fillL1(c, block, write, isPTB)
		r.attrCacheHit(isPTB, l2Lat)
		return t + l2Lat
	}
	if s := r.l3.Lookup(block); s >= 0 {
		// Exclusive L3: promote to L2.
		r.insertL2(c, block, r.l3.InvalidateAt(s), write, isPTB, t)
		r.fillL1(c, block, write, isPTB)
		r.attrCacheHit(isPTB, l3Lat)
		return t + l3Lat
	}

	// LLC miss: go to the MC over the NoC.
	if r.recording {
		r.m.LLCMisses++
	}
	ppn := block / config.BlocksPage
	off := int(block % config.BlocksPage)

	// One CTE Buffer probe per LLC miss: the piggyback update below acts
	// on the same slot, which stays valid because nothing in between
	// inserts into the core's Buffer.
	var embedded *cte.Entry
	bufSlot := -1
	if r.embed {
		if bufSlot = c.buf.Lookup(ppn); bufSlot >= 0 && c.buf.At(bufSlot).HasCTE {
			tr := c.buf.At(bufSlot).CTE
			if r.inj != nil {
				// Fault site (a): corrupt or stale-out the embedded CTE the
				// request piggybacks, forcing the MC's verify-redo recovery.
				tr, _ = r.inj.PerturbCTE(tr, r.pcfg.CTEBits)
			}
			// The MC reads the piggybacked entry during Access and does not
			// retain it, so a per-Runner scratch avoids the escape-to-heap
			// allocation a composite literal's address would cost here.
			r.embScratch = cte.Entry{DRAMPage: tr}
			embedded = &r.embScratch
		}
	}
	res := r.mcc.Access(t, ppn, off, false, embedded, walkRelated)
	done := res.Done + r.noc
	if r.attrOn() {
		// Copy the MC's scratch before the piggyback/insert/prefetch work
		// below issues nested accesses that would overwrite it.
		a := *r.mcc.Attr()
		a.Add(attr.CNoC, r.noc)
		a.Total = done - t
		r.finishAttr(&a, isPTB)
	}
	if r.recording {
		r.m.L3MissLatencySum += done - t
		r.missLatNS.Observe(int64((done - t) / config.Nanosecond))
		ns := int((done - t) / config.Nanosecond)
		for i, ub := range LatHistBounds {
			if ns < ub {
				r.m.LatHist[i]++
				break
			}
		}
		if done-t > 500*config.Nanosecond {
			r.m.SlowMisses++
			r.m.SlowMissSum += done - t
			if done-t > r.m.SlowMax {
				r.m.SlowMax = done - t
			}
			if res.Tag == mc.TagML2 {
				r.m.SlowML2++
			}
			if isPTB {
				r.m.SlowPTB++
			}

		}
	}

	// Piggyback the correct CTE back to L2 (Section V-A3): refresh the CTE
	// Buffer and lazily repair the PTB's embedded copy.
	if bufSlot >= 0 {
		correct := r.mcc.CurrentCTE(ppn)
		if ptbSlot, stale := c.buf.UpdateAt(bufSlot, correct.Truncated(r.pcfg.CTEBits)); stale {
			r.repairPTB(ptbSlot, ppn, correct)
		}
	}

	r.insertL2(c, block, 0, write, isPTB, t)
	r.fillL1(c, block, write, isPTB)
	r.prefetch(c, t, block)
	return done
}

// attrOn reports whether latency attribution is live: a sink exists and
// the run is inside the measured window (warmup accesses are not
// attributed, mirroring the Metrics recording gate).
func (r *Runner) attrOn() bool { return r.ag != nil && r.recording }

// attrCacheHit records a cache-served access: the whole latency is the
// hit service time, plus the pending walk for demand accesses.
func (r *Runner) attrCacheHit(isPTB bool, lat config.Time) {
	if !r.attrOn() {
		return
	}
	var a attr.Access
	a.Add(attr.CCacheHit, lat)
	a.Total = lat
	r.finishAttr(&a, isPTB)
}

// finishAttr classifies and records one access breakdown. Demand
// accesses absorb the page-walk time their step banked (so the demand
// class's mean total is the true end-to-end access latency); the walk's
// own PTB fetches are also recorded under the ptb class, which therefore
// overlaps demand by construction — classes are reported side by side,
// never summed.
func (r *Runner) finishAttr(a *attr.Access, isPTB bool) {
	if isPTB {
		a.Class = attr.ClassPTB
	} else {
		a.Class = attr.ClassDemand
		a.Add(attr.CWalk, r.attrWalk)
		a.Total += r.attrWalk
		r.attrWalk = 0
	}
	r.ag.Record(a)
}

// fillL1 caches the block in L1 for demand accesses. A write's L2 line is
// already dirty: every caller has just marked or inserted it so.
func (r *Runner) fillL1(c *core, block uint64, write, isPTB bool) {
	if isPTB {
		return // walker data stays out of L1
	}
	var f uint8
	if write {
		f = cache.FlagDirty
	}
	c.l1.Insert(block, f)
}

// insertL2 fills a block into L2, spilling the victim into the exclusive
// L3 and writing back dirty L3 victims through the MC.
func (r *Runner) insertL2(c *core, block uint64, flags uint8, write, isPTB bool, now config.Time) {
	if write {
		flags |= cache.FlagDirty
	}
	if isPTB && r.opt.Kind == mc.TMCC {
		// L2 re-compresses PTB lines fetched for the walker (Section
		// V-A4): the line carries the "new data bit".
		flags |= cache.FlagCompressedPTB
	}
	v := c.l2.Insert(block, flags)
	if v.Valid {
		lv := r.l3.Insert(v.Block, v.Flags)
		if lv.Valid && lv.Flags&cache.FlagDirty != 0 {
			r.writeback(lv.Block, now)
		}
	}
}

// writeback posts a dirty-line write to the MC; writes also consume CTE
// translations (Section III: all regular requests need CTEs).
func (r *Runner) writeback(block uint64, now config.Time) {
	if r.recording {
		r.m.Writebacks++
	}
	r.background(now, block, true, attr.ClassWriteback)
}

// background sends one access off every requester's critical path (a
// dirty writeback or a prefetch) to the MC, stamping its heat and attr
// record under class cl.
func (r *Runner) background(now config.Time, block uint64, write bool, cl attr.Class) {
	r.heat(block, cl)
	res := r.mcc.Access(now, block/config.BlocksPage, int(block%config.BlocksPage), write, nil, false)
	if r.attrOn() {
		a := *r.mcc.Attr()
		a.Class = cl
		a.Total = res.Done - now
		r.ag.Record(&a)
	}
}

// prefetch runs the L2 next-line and stride prefetchers on a demand miss.
// Candidates collect in the Runner's reusable buffer (the stride detector
// must observe the miss stream even while prefetching is off).
func (r *Runner) prefetch(c *core, now config.Time, block uint64) {
	if !r.sys.Cache.NextLinePrefetch || !c.throttle.Enabled() {
		r.pfBuf = c.stride.ObserveAppend(block, r.pfBuf[:0])
		return
	}
	r.pfBuf = append(r.pfBuf[:0], cache.NextLine(block))
	r.pfBuf = c.stride.ObserveAppend(block, r.pfBuf)
	for _, nb := range r.pfBuf {
		if nb/config.BlocksPage != block/config.BlocksPage {
			continue // stay within the page: no extra translation
		}
		if c.l2.Probe(nb) >= 0 || r.l3.Probe(nb) >= 0 {
			continue
		}
		c.throttle.Issued()
		r.background(now, nb, false, attr.ClassPrefetch)
		r.insertL2(c, nb, flagPrefetched, false, false, now)
	}
}

// loadCTEBuffer copies the embedded CTEs of a fetched PTB into the core's
// CTE Buffer (Figure 10). One directory probe resolves the PTB's slot;
// its state and PTEs are then read in place.
func (r *Runner) loadCTEBuffer(c *core, ptbAddr uint64) {
	slot, ok := r.as.Table.PTBSlot(ptbAddr)
	if !ok {
		return
	}
	st := r.ptbState(slot)
	if !st.compressible {
		return
	}
	for i, pte := range r.as.Table.PTBAt(slot) {
		if pte&pagetable.FlagPresent == 0 {
			continue
		}
		c.buf.Insert(ctecache.BufEntry{PPN: pagetable.PPN(pte), PTBSlot: slot, CTE: st.CTEs[i], HasCTE: st.HasCTE[i]})
	}
}

// ptbState lazily builds the hardware view of the PTB at a dense table
// slot: compressibility and (initially empty) embedded-CTE slots. PTBs
// are compressed when the page walker first pulls them through L2
// (Section V-A4). The states live in a flat slice indexed by the table's
// PTB slots.
func (r *Runner) ptbState(slot int) *ptbState {
	st := &r.ptbs[slot]
	if !st.init {
		st.init = true
		st.compressible = r.pcfg.Compressible(r.as.Table.PTBAt(slot))
	}
	return st
}

// repairPTB lazily updates the embedded CTE of the PTB at a table slot
// after the MC reported the authoritative translation (Section V-A3's lazy
// update).
func (r *Runner) repairPTB(slot int, ppn uint64, correct cte.Entry) {
	st := r.ptbState(slot)
	if !st.compressible {
		return
	}
	for i, pte := range r.as.Table.PTBAt(slot) {
		if pte&pagetable.FlagPresent != 0 && pagetable.PPN(pte) == ppn {
			r.pcfg.Embed(&st.Slots, i, correct)
			return
		}
	}
}

// reembed is the one walk over a compressible PTB's embeddable slots: it
// embeds the current CTE of each placed page a present PTE points to —
// every such slot at warmup, only the filled ones when filledOnly (the
// RAS patrol) — and reports how many stored truncated CTEs it changed.
func (r *Runner) reembed(st *ptbState, ptes *[pagetable.PTEsPerPTB]uint64, filledOnly bool) int {
	changed := 0
	for i, pte := range ptes[:r.pcfg.MaxEmbeddable()] {
		ppn := pagetable.PPN(pte)
		if pte&pagetable.FlagPresent == 0 || filledOnly && !st.HasCTE[i] || !r.mcc.Placed(ppn) {
			continue
		}
		if e := r.mcc.CurrentCTE(ppn); !st.HasCTE[i] || st.CTEs[i] != e.Truncated(r.pcfg.CTEBits) {
			r.pcfg.Embed(&st.Slots, i, e)
			changed++
		}
	}
	return changed
}

// patrolCTE runs the RAS embedded-CTE scrubber when a policy-window edge
// passes: a bounded round-robin sweep over the PTB slots, comparing each
// embedded CTE against the MC's authoritative translation truncated as a
// PTB stores it, and refreshing stale copies before a demand access
// mis-speculates on them. The visit and repair counts bank their cycle
// cost into the MC's scrub backlog (ChargeCTEScrub), so the patrol is
// paid for on the same conserved degraded-attr path as the MC-side
// payload patrol.
func (r *Runner) patrolCTE(now config.Time) {
	quota := r.rasCTE.Tick(now).ScrubPages
	if quota == 0 {
		return
	}
	visited, repairs := 0, 0
	for i := 0; i < quota; i++ {
		slot := int(r.rasCTE.NextScrub(len(r.ptbs)))
		if st := &r.ptbs[slot]; st.init && st.compressible {
			visited++
			repairs += r.reembed(st, r.as.Table.PTBAt(slot), true)
		}
	}
	r.mcc.ChargeCTEScrub(visited, repairs)
}

// Spec exposes the workload parameters of this run.
func (r *Runner) Spec() workload.Spec { return r.spec }

// MC exposes the controller (experiments read design-specific stats).
func (r *Runner) MC() *mc.MC { return r.mcc }
