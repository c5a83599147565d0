package mc

import (
	"fmt"

	"tmcc/internal/config"
)

// audit verifies the O(1) chunk-conservation invariant of the two-level
// designs: every data frame in the pool is either free on the ML1 list,
// holding one resident uncompressed page, or owned by ML2's super-chunks.
// It runs under the tmccdebug build tag after every migration event
// (placement, eviction, demand ML2 read).
func (m *MC) audit() error {
	if m.ml1 == nil {
		return nil // Uncompressed / Compresso: no two-level accounting
	}
	free := m.ml1.Len()
	held := m.ml2.HeldChunks
	if m.ml1Size < 0 {
		return fmt.Errorf("ml1Size=%d negative", m.ml1Size)
	}
	over := m.pressure.overflowUsed
	if over < 0 || over > m.ml1Size {
		return fmt.Errorf("overflowUsed=%d outside [0, ml1Size=%d]", over, m.ml1Size)
	}
	// Pages resident on overflow frames are outside the pool, so they do
	// not participate in pool-chunk conservation.
	total := uint64(m.ml1Size-over) + uint64(held) + uint64(free)
	if total != m.chunkPool {
		return fmt.Errorf("chunk leak: ml1=%d (minus %d overflow) + ml2-held=%d + free=%d = %d, pool=%d",
			m.ml1Size, over, held, free, total, m.chunkPool)
	}
	if m.ml2.UsedBytes < 0 {
		return fmt.Errorf("ml2 UsedBytes=%d negative", m.ml2.UsedBytes)
	}
	if max := int64(held) * config.PageSize; m.ml2.UsedBytes > max {
		return fmt.Errorf("ml2 UsedBytes=%d exceeds held capacity %d", m.ml2.UsedBytes, max)
	}
	return nil
}

// AuditPages is the deep O(pages) audit: it walks the whole page-state
// table and checks it against the ML1/ML2 byte accounting and the CTE
// contents the MC would serve — the metadata whose silent drift corrupts
// capacity results. Exported for tests; simulation runs invoke it once per
// Settle under tmccdebug.
func (m *MC) AuditPages() error {
	if m.ml1 == nil {
		return nil
	}
	ml1Resident := 0
	inML2 := 0
	overflowResident := 0
	retired := 0
	for ppn := range m.pages {
		st := &m.pages[ppn]
		if st.retired {
			// A retired page must sit pinned uncompressed on its frame:
			// never in ML2, never a compression candidate again.
			retired++
			if st.inML2 {
				return fmt.Errorf("ppn %#x: retired page stored in ML2", ppn)
			}
			if !st.incompressible {
				return fmt.Errorf("ppn %#x: retired page still marked compressible", ppn)
			}
			if !st.placed {
				return fmt.Errorf("ppn %#x: retired page not placed", ppn)
			}
		}
		if !st.placed {
			if st.inML2 {
				return fmt.Errorf("ppn %#x: in ML2 but never placed", ppn)
			}
			continue
		}
		e := m.CurrentCTE(uint64(ppn))
		if st.inML2 {
			inML2++
			if st.incompressible {
				return fmt.Errorf("ppn %#x: incompressible page stored in ML2", ppn)
			}
			if !e.InML2 {
				return fmt.Errorf("ppn %#x: CTE disagrees with page state (InML2)", ppn)
			}
			// The CTE must point inside ML2-held DRAM, i.e. not into the
			// reserved CTE table above the data pool.
			if addr := m.ml2.Address(st.sub()); addr >= m.chunkPool*config.PageSize {
				return fmt.Errorf("ppn %#x: ML2 address %#x beyond data pool %#x",
					ppn, addr, m.chunkPool*config.PageSize)
			}
		} else {
			ml1Resident++
			if e.InML2 {
				return fmt.Errorf("ppn %#x: CTE claims ML2 for an ML1-resident page", ppn)
			}
			if e.DRAMPage != st.chunk {
				return fmt.Errorf("ppn %#x: CTE frame %d != resident chunk %d",
					ppn, e.DRAMPage, st.chunk)
			}
			switch {
			case uint64(st.chunk) >= m.cfg.BudgetPages:
				// Overflow frame: legal under pressure, bounded by the cap.
				overflowResident++
				if st.chunk >= uint32(m.cfg.BudgetPages)+m.pressure.overflowCap {
					return fmt.Errorf("ppn %#x: overflow chunk %d beyond cap %d",
						ppn, st.chunk, uint64(m.cfg.BudgetPages)+uint64(m.pressure.overflowCap))
				}
			case uint64(st.chunk) >= m.chunkPool:
				// Between the pool and the budget lies the CTE table.
				return fmt.Errorf("ppn %#x: chunk %d aliases the CTE table [%d, %d)",
					ppn, st.chunk, m.chunkPool, m.cfg.BudgetPages)
			}
		}
	}
	if ml1Resident != m.ml1Size {
		return fmt.Errorf("ml1Size=%d but %d pages are ML1-resident", m.ml1Size, ml1Resident)
	}
	if overflowResident != m.pressure.overflowUsed {
		return fmt.Errorf("overflowUsed=%d but %d pages sit on overflow frames",
			m.pressure.overflowUsed, overflowResident)
	}
	if uint64(retired) != m.ras.Retired() {
		return fmt.Errorf("ras reports %d retired frames but %d pages are marked retired",
			m.ras.Retired(), retired)
	}
	if err := m.ml2.Audit(); err != nil {
		return fmt.Errorf("ml2: %w", err)
	}
	return m.audit()
}
