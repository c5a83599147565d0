package mc

// RAS policy execution: the internal/ras package decides (scoreboard,
// breaker, patrol quota) and the controller carries the decisions out
// against its real structures — the page-state table, the ML1 free list,
// the recency list — and stamps every action into the same conserved
// sinks the rest of the controller uses. A nil m.ras keeps every hook on
// a single predictable branch, so RAS-off runs stay byte-identical.

import (
	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
)

// rasTick rolls the policy clock on a demand access. On a window edge the
// breaker is evaluated and the background patrol runs its bounded page
// quota; patrol work banks cycle cost into rasBacklog, which is drained
// here onto the requester's critical path and charged to the degraded
// attr component — exactly the CPressureStall pattern, so breakdowns stay
// conserved (the stall is added to both the access total and the
// component). Called only when m.ras != nil.
func (m *MC) rasTick(now config.Time) config.Time {
	tk := m.ras.Tick(now)
	if tk.Opened {
		m.tally.rasBreakerOpens++
	}
	if tk.Closed {
		m.tally.rasBreakerCloses++
	}
	if tk.ScrubPages > 0 {
		m.scrubPatrol(tk.ScrubPages)
	}
	if m.rasBacklog > 0 {
		if m.ab != nil {
			m.ab.Add(attr.CDegraded, m.rasBacklog)
		}
		m.tally.rasBacklogPS += uint64(m.rasBacklog)
		now += m.rasBacklog
		m.rasBacklog = 0
	}
	return now
}

// rasResult applies degraded-mode writethrough to a served access: while
// the breaker is open the controller bypasses its compression machinery
// and writes through, paying the configured penalty (charged to the
// degraded component so Total still equals the component sum the
// simulator reconstructs from res.Done). Called only when m.ras != nil.
func (m *MC) rasResult(res Result, write bool) Result {
	if !write || !m.ras.Degraded() {
		return res
	}
	w := m.ras.WritethroughPS()
	if w <= 0 {
		return res
	}
	res.Done += w
	if m.ab != nil {
		m.ab.Add(attr.CDegraded, w)
	}
	m.tally.rasDegradedWrites++
	m.tally.rasBacklogPS += uint64(w)
	return res
}

// rasStrike records one definite-corruption detection against ppn: it
// feeds the breaker window and the page's retirement scoreboard. Only
// payload checksum quarantines strike — CTE verify mismatches
// (TagParallelWrong) are expected staleness in healthy runs and DRAM
// timeouts have no page to blame (they feed the breaker via Fault).
// Nil-safe on both state and counter, so the demand quarantine path can
// call it unconditionally.
func (m *MC) rasStrike(ppn uint64) {
	if m.ras == nil {
		return
	}
	m.ras.Strike(ppn)
	m.tally.rasStrikes++
}

// maybeRetire permanently retires ppn's frame once its scoreboard crosses
// the strike threshold. The page must sit uncompressed on the frame (a
// quarantine migration just put it there): the page pins the frame, the
// free list blacklists it so no future Push re-issues it, and the page is
// marked incompressible so eviction never moves it again. The retirement
// is stamped on the heatmap as a churn event conserved against the
// lifetime ras.retired counter.
func (m *MC) maybeRetire(ppn uint64, st *pageState) {
	if st.retired || st.inML2 || !st.placed || !m.ras.ShouldRetire(ppn) {
		return
	}
	st.retired = true
	st.incompressible = true
	if m.ml1 != nil && uint64(st.chunk) < m.cfg.BudgetPages {
		m.ml1.Retire(st.chunk)
	}
	m.ras.MarkRetired()
	m.heat.Event(ppn, heatmap.EvRetired)
}

// scrubPatrol is the background scrubber's per-window pass: visit up to
// quota pages round-robin (cursor seeded per run), verify the stored
// payload checksum of each compressed page, and proactively quarantine
// any latent corruption before a demand access trips over it. Each
// examined compressed page banks its patrol cost (read + decompress +
// verify) into rasBacklog.
func (m *MC) scrubPatrol(quota int) {
	if len(m.pages) == 0 || m.ml1 == nil {
		return
	}
	for i := 0; i < quota; i++ {
		ppn := m.ras.NextScrub(len(m.pages))
		m.tally.rasScrubPages++
		st := &m.pages[ppn]
		if !st.placed || !st.inML2 {
			continue
		}
		m.rasBacklog += m.ras.ScrubPagePS()
		size, _ := m.cfg.Sizes.PageSizes(ppn)
		// A latent fault surfaces here rather than on a demand read: same
		// injection site, drawn on the patrol's deterministic schedule.
		m.payloadFault(st)
		if st.sum == pageChecksum(ppn, size) {
			continue
		}
		// The page is repaired from its (modeled) redundant copy and
		// quarantined like a demand detection, but off the critical path:
		// the repair cost banks into rasBacklog instead of stalling a
		// requester. With no free frame the payload is rewritten in place
		// and the page stays compressed.
		m.tally.rasScrubDetect++
		m.quarantine(ppn)
		m.rasBacklog += m.cfg.ML2HalfPage
		chunk, ok := m.ml1.Pop()
		if !ok {
			st.sum = pageChecksum(ppn, size)
			continue
		}
		m.promote(ppn, st, chunk, size, true)
	}
}

// ChargeCTEScrub banks the cycle cost of the simulator's embedded-CTE
// patrol (pages PTBs examined, repairs stale entries refreshed) into the
// controller's scrub backlog, so the cross-layer patrol shares one
// conserved charging path. No-op when RAS is off.
func (m *MC) ChargeCTEScrub(pages, repairs int) {
	if m.ras == nil || pages <= 0 {
		return
	}
	m.rasBacklog += config.Time(pages) * m.ras.ScrubPagePS()
	m.tally.rasScrubCTE += uint64(pages)
	m.tally.rasScrubRepair += uint64(repairs)
}

// RASRetired reports how many frames the scoreboard has retired.
func (m *MC) RASRetired() uint64 { return m.ras.Retired() }

// RASDegraded reports whether the breaker is currently open.
func (m *MC) RASDegraded() bool { return m.ras.Degraded() }
