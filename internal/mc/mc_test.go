package mc

import (
	"strings"
	"testing"
	"unsafe"

	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/memdeflate"
	"tmcc/internal/workload"
)

// TestPageStatePacked pins the per-page controller state at 8 bytes: New
// allocates one per OS page, so a new field grows every system's largest
// build allocation.
func TestPageStatePacked(t *testing.T) {
	if got := unsafe.Sizeof(pageState{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(pageState{}) = %d, want 8", got)
	}
}

func sizesFor(t testing.TB, bench string) *workload.SizeModel {
	t.Helper()
	s, err := workload.NewSizeModel(bench, 64, 1, memdeflate.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustNew(t testing.TB, cfg Config) *MC {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTwoLevel(t testing.TB, kind Kind) *MC {
	t.Helper()
	return mustNew(t, Config{
		Kind:        kind,
		Sys:         config.Default(),
		BudgetPages: 4096,
		OSPages:     16384,
		Sizes:       sizesFor(t, "pageRank"),
		ML2HalfPage: 140 * config.Nanosecond,
		ML2Compress: 660 * config.Nanosecond,
		Seed:        1,
	})
}

func TestUncompressedAccess(t *testing.T) {
	m := mustNew(t, Config{Kind: Uncompressed, Sys: config.Default(), BudgetPages: 1024, OSPages: 1024})
	m.Place(5, false)
	res := m.Access(0, 5, 3, false, nil, false)
	if res.Tag != TagUncompressed || res.Done <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	if m.Stats.CTEMisses != 0 {
		t.Error("uncompressed design consulted CTEs")
	}
}

func TestCompressoSerialCTEMiss(t *testing.T) {
	m := mustNew(t, Config{
		Kind: Compresso, Sys: config.Default(),
		BudgetPages: 4096, OSPages: 16384, Sizes: sizesFor(t, "pageRank"), Seed: 1,
	})
	m.Place(10, false)
	// First access: CTE miss -> serial fetch, so it must be slower than a
	// subsequent same-page access that hits the CTE cache.
	first := m.Access(0, 10, 0, false, nil, true)
	if first.Tag != TagSerial {
		t.Fatalf("first access tag = %v, want serial", first.Tag)
	}
	second := m.Access(first.Done, 10, 1, false, nil, false)
	if second.Tag != TagCTEHit {
		t.Fatalf("second access tag = %v, want CTE hit", second.Tag)
	}
	if second.Done-first.Done >= first.Done {
		t.Errorf("CTE hit (%d ps) not faster than serial miss (%d ps)",
			second.Done-first.Done, first.Done)
	}
	if m.Stats.CTEMissWalkRelated != 1 {
		t.Errorf("walk-related misses = %d", m.Stats.CTEMissWalkRelated)
	}
}

func TestTMCCParallelAccess(t *testing.T) {
	m := newTwoLevel(t, TMCC)
	m.Place(20, false)
	correct := m.CurrentCTE(20)
	res := m.Access(0, 20, 0, false, &correct, true)
	if res.Tag != TagParallelOK {
		t.Fatalf("tag = %v, want parallel-ok", res.Tag)
	}
	// A stale embedded CTE must be detected and re-accessed.
	m2 := newTwoLevel(t, TMCC)
	m2.Place(21, false)
	stale := cte.Entry{DRAMPage: m2.CurrentCTE(21).DRAMPage + 7}
	res2 := m2.Access(0, 21, 0, false, &stale, true)
	if res2.Tag != TagParallelWrong {
		t.Fatalf("tag = %v, want parallel-wrong", res2.Tag)
	}
	if res2.Done <= res.Done {
		t.Error("mismatching speculation was not slower than correct speculation")
	}
}

// TestOSInspiredSerialWithoutEmbedding pins OS-inspired's CTE miss: its
// runs embed no CTEs, so the request carries none and resolves serially.
func TestOSInspiredSerialWithoutEmbedding(t *testing.T) {
	m := newTwoLevel(t, OSInspired)
	m.Place(30, false)
	res := m.Access(0, 30, 0, false, nil, true)
	if res.Tag != TagSerial {
		t.Fatalf("OS-inspired used speculation: %v", res.Tag)
	}
}

func TestML2DemandMigratesToML1(t *testing.T) {
	m := newTwoLevel(t, TMCC)
	if !m.Place(40, true) {
		t.Fatal("ML2 placement failed")
	}
	if !m.InML2(40) {
		t.Fatal("page not in ML2 after placement")
	}
	res := m.Access(0, 40, 5, false, nil, false)
	if res.Tag != TagML2 {
		t.Fatalf("tag = %v, want ML2", res.Tag)
	}
	if m.InML2(40) {
		t.Error("page not migrated to ML1 after demand access")
	}
	if m.Stats.ML2Reads != 1 || m.Stats.ML2ToML1 != 1 {
		t.Errorf("migration stats %+v", m.Stats)
	}
	// ML2 access must cost at least the half-page decompression latency.
	if res.Done < 140*config.Nanosecond {
		t.Errorf("ML2 access finished in %d ps, faster than decompression", res.Done)
	}
}

func TestEvictionKeepsFreeList(t *testing.T) {
	m := newTwoLevel(t, TMCC)
	// Exhaust ML1 beneath the watermark, then settle.
	for ppn := uint64(0); ppn < 3980; ppn++ {
		m.Place(ppn, false)
	}
	before := m.FreeML1Chunks()
	m.Settle()
	if m.FreeML1Chunks() < before {
		t.Errorf("settle reduced free chunks: %d -> %d", before, m.FreeML1Chunks())
	}
	if m.FreeML1Chunks() < m.LowMark() {
		t.Errorf("free list %d below watermark %d after settle",
			m.FreeML1Chunks(), m.LowMark())
	}
	if m.Stats.ML1ToML2 == 0 {
		t.Error("no evictions happened")
	}
}

func TestIncompressiblePagesStayInML1(t *testing.T) {
	m := mustNew(t, Config{
		Kind: TMCC, Sys: config.Default(),
		BudgetPages: 4096, OSPages: 16384,
		Sizes:       sizesFor(t, "canneal"), // 40% random pages
		ML2HalfPage: 140 * config.Nanosecond, ML2Compress: 660 * config.Nanosecond,
		Seed: 1,
	})
	for ppn := uint64(0); ppn < 3980; ppn++ {
		m.Place(ppn, false)
	}
	m.Settle()
	if m.Stats.IncompressSkips == 0 {
		t.Error("no incompressible pages were skipped during eviction")
	}
}

func TestUsedPagesAccounting(t *testing.T) {
	m := newTwoLevel(t, TMCC)
	for ppn := uint64(0); ppn < 100; ppn++ {
		m.Place(ppn, ppn >= 50)
	}
	used := m.UsedPages()
	if used == 0 || used > 4096 {
		t.Errorf("used pages = %d out of range", used)
	}
	if m.ML1Pages() < 50 {
		t.Errorf("ML1 pages = %d, want >= 50", m.ML1Pages())
	}
}

func TestCurrentCTETracksMigration(t *testing.T) {
	m := newTwoLevel(t, TMCC)
	m.Place(60, true)
	before := m.CurrentCTE(60)
	if !before.InML2 {
		t.Fatal("CTE does not mark ML2 residency")
	}
	m.Access(0, 60, 0, false, nil, false) // migrates to ML1
	after := m.CurrentCTE(60)
	if after.InML2 {
		t.Error("CTE still marks ML2 after migration")
	}
	if before.Pack() == after.Pack() {
		t.Error("CTE unchanged across migration")
	}
}

// TestAuditPagesChecksRecency: the deep audit reads the frame-keyed
// Recency List back against the page table. A settled controller passes;
// a record naming a page off its frame, a page in ML2 or an unplaced page
// fails it.
func TestAuditPagesChecksRecency(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owner func(m *MC) uint64
	}{
		{"off its frame", func(m *MC) uint64 {
			for ppn := range m.pages {
				if st := &m.pages[ppn]; st.is(pgPlaced) && !st.is(pgInML2) {
					return uint64(ppn)
				}
			}
			t.Fatal("no ML1-resident page")
			return 0
		}},
		{"in ML2", func(m *MC) uint64 {
			for ppn := range m.pages {
				if m.pages[ppn].is(pgInML2) {
					return uint64(ppn)
				}
			}
			t.Fatal("no page in ML2")
			return 0
		}},
		{"unplaced", func(*MC) uint64 { return 10000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTwoLevel(t, TMCC)
			for ppn := uint64(0); ppn < 3980; ppn++ {
				m.Place(ppn, false)
			}
			m.Settle()
			if err := m.AuditPages(); err != nil {
				t.Fatalf("settled controller: %v", err)
			}
			// A free frame keeps chunk conservation intact, so only the
			// list can fail the audit.
			frame, ok := m.ml1.Pop()
			if !ok {
				t.Fatal("no free frame")
			}
			m.ml1.Push(frame)
			m.rec.Touch(frame, tc.owner(m))
			if err := m.AuditPages(); err == nil || !strings.Contains(err.Error(), "recency: ") {
				t.Fatalf("AuditPages = %v, want a recency: error", err)
			}
		})
	}
}
