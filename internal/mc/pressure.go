// Capacity-pressure graceful degradation (the controller's answer to the
// ballooning problem: compressed data that expands can eat the ML1/ML2
// headroom the placement was sized for). Instead of panicking when the ML1
// free list runs dry, the controller walks a degradation ladder:
//
//  1. watermark eviction (maybeEvict) — the normal background path;
//  2. emergency force-migration — evict the coldest ML1 pages on the
//     requester's critical path, charged to the pressureStall attr
//     component;
//  3. overflow region — frames carved beyond the nominal budget
//     (numbered from BudgetPages upward, so they can never collide with
//     the CTE table that lives at the top of the budget);
//  4. ErrCapacityExhausted — a sticky typed error surfaced through
//     sim.Runner.Run, the experiment engine, and tmccsim's exit code.
//
// Every rung is visible as mc.<kind>.pressure.* metrics so a degraded run
// is diagnosable from -stats output alone.

package mc

import (
	"errors"
	"fmt"
	"math"

	"tmcc/internal/config"
	"tmcc/internal/obs"
	"tmcc/internal/obs/heatmap"
)

// ErrCapacityExhausted is the sentinel wrapped by every CapacityError:
// the pressure controller ran out of degradation rungs (no frame could be
// freed by emergency migration and the overflow region is full). Callers
// match it with errors.Is.
var ErrCapacityExhausted = errors.New("mc: capacity exhausted")

// CapacityError reports where and how the controller hit the wall.
type CapacityError struct {
	Kind     Kind
	PPN      uint64 // page whose placement failed
	Budget   uint64 // configured budget, 4KB frames
	Pool     uint64 // frames left for data after metadata reservations
	ML1Pages int    // uncompressed resident pages at failure
	ML2Held  int    // frames held by ML2 super-chunks at failure
	Overflow int    // overflow frames in use (of OverflowCap)
	Cap      int    // overflow region capacity
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf(
		"mc: capacity exhausted placing ppn %#x on %s: budget %d frames (pool %d), ml1 %d pages, ml2 holds %d, overflow %d/%d — raise -budget or reduce the working set",
		e.PPN, e.Kind, e.Budget, e.Pool, e.ML1Pages, e.ML2Held, e.Overflow, e.Cap)
}

// Unwrap lets errors.Is(err, ErrCapacityExhausted) match.
func (e *CapacityError) Unwrap() error { return ErrCapacityExhausted }

// MaxPages bounds the OS pages and the DRAM frames one controller numbers,
// the overflow region's frames included (Frames): frame numbers and PPNs
// live in uint32 fields (pageState.chunk, freelist.SubChunk.Super, the
// Recency List's records), and the Recency List stores frame+1.
const MaxPages = math.MaxUint32

// Frames is the span of frame numbers a two-level controller over budget
// frames may hand out: the budget, then the overflow region the
// degradation ladder spills into, 1/64 of the budget and at least 16
// frames.
func Frames(budget uint64) uint64 { return budget + overflowPages(budget) }

func overflowPages(budget uint64) uint64 {
	return max(16, budget/64) //tmcclint:allow magic-literal (1/64-of-budget overflow policy, not address math)
}

// pressureState tracks the controller's degradation machinery.
type pressureState struct {
	emergencies  uint64   // force-migrations run on a requester's critical path
	overflowFree []uint32 // released overflow frames, reused LIFO
	overflowNext uint32   // next never-used overflow frame index
	overflowCap  uint32   // max overflow frames (scaled to the budget)
	overflowUsed int      // overflow frames currently holding pages
}

// Err reports the sticky capacity failure; nil while the controller can
// still make progress. Once set, further placements are unreliable, so
// sim.Runner aborts its access loop on the first non-nil Err.
func (m *MC) Err() error {
	if m.capErr == nil {
		return nil
	}
	return m.capErr
}

// popFrame hands out a free ML1 frame, walking the pressure ladder when
// the free list is empty. The returned time is when the frame is usable:
// later than now only when an emergency force-migration had to run on the
// caller's critical path. ok=false means the ladder is exhausted (the
// caller reports it via failCapacity).
func (m *MC) popFrame(now config.Time) (uint32, config.Time, bool) {
	if c, ok := m.ml1.Pop(); ok {
		return c, now, true
	}
	// Rung 2: emergency force-migration. The watermark policy has already
	// fallen behind, so demand work blocks until the coldest page has been
	// compressed and written out. One eviction does not guarantee a free
	// chunk (ML2 may carve a fresh super-chunk out of the very chunks it
	// returns), so loop until the list yields or the Recency List is dry.
	entry := now
	for {
		ppn, done, ok := m.evictOne(now)
		if !ok {
			break
		}
		m.pressure.emergencies++
		m.heat.Event(ppn, heatmap.EvEmergency)
		if done > now {
			now = done
		}
		if c, ok := m.ml1.Pop(); ok {
			m.emitPressure(entry, now)
			return c, now, true
		}
	}
	// Rung 3: overflow region beyond the nominal budget.
	m.emitPressure(entry, now)
	if c, ok := m.overflowAlloc(); ok {
		return c, now, true
	}
	return 0, now, false
}

// emitPressure marks an emergency force-migration burst in the trace: one
// CatPressure span covering the demand stall from ladder entry to frame
// handoff, so capacity-pressure episodes line up against the windowed
// pressure.* counter deltas on the same simulated-time axis.
func (m *MC) emitPressure(entry, now config.Time) {
	if now > entry {
		m.tr.Emit(obs.CatPressure, "emergency", obs.TIDMC, entry, now)
	}
}

// overflowAlloc takes a frame from the overflow region: released frames
// are reused first, then never-used frames numbered from BudgetPages
// upward (above the CTE table, so overflow can never alias metadata).
func (m *MC) overflowAlloc() (uint32, bool) {
	p := &m.pressure
	if n := len(p.overflowFree); n > 0 {
		c := p.overflowFree[n-1]
		p.overflowFree = p.overflowFree[:n-1]
		p.overflowUsed++
		return c, true
	}
	if p.overflowNext >= p.overflowCap {
		return 0, false
	}
	c := uint32(m.cfg.BudgetPages) + p.overflowNext
	p.overflowNext++
	p.overflowUsed++
	return c, true
}

// overflowRelease returns an overflow frame (chunk >= BudgetPages) to the
// region's free stack; evictOne calls it instead of pushing onto the ML1
// list, which only owns pool frames.
func (m *MC) overflowRelease(c uint32) {
	p := &m.pressure
	p.overflowFree = append(p.overflowFree, c)
	p.overflowUsed--
}

// failCapacity records the sticky exhaustion error (first failure wins)
// and counts the event.
func (m *MC) failCapacity(ppn uint64) {
	m.tally.pressureExhausted++
	if m.capErr != nil {
		return
	}
	held := 0
	if m.ml2 != nil {
		held = m.ml2.HeldChunks
	}
	m.capErr = &CapacityError{
		Kind:     m.cfg.Kind,
		PPN:      ppn,
		Budget:   m.cfg.BudgetPages,
		Pool:     m.chunkPool,
		ML1Pages: m.ml1Size,
		ML2Held:  held,
		Overflow: m.pressure.overflowUsed,
		Cap:      int(m.pressure.overflowCap),
	}
}

// injectDRAM applies armed DRAM faults to one request-path operation:
// latency spikes delay the issue, and transient channel busy makes the MC
// back off exponentially and retry, issuing anyway once the retry budget
// is spent (timeout). Called only when an injector is armed.
func (m *MC) injectDRAM(now config.Time, addr uint64) config.Time {
	if d, ok := m.inj.Spike(); ok {
		now += d
	}
	if m.inj.Busy(m.dram.ChannelOf(addr)) {
		m.tally.dramBusy++
		backoff := m.inj.BusyBackoff()
		for try := 0; ; try++ {
			now += backoff << uint(try)
			m.inj.NoteRetry()
			if !m.inj.Busy(m.dram.ChannelOf(addr)) {
				break
			}
			if try+1 >= m.inj.BusyRetries() {
				m.inj.NoteTimeout()
				// Feed the RAS breaker: a timeout is a definite fault but
				// has no page to blame, so it never strikes a scoreboard.
				m.ras.Fault()
				break
			}
		}
	}
	return now
}
