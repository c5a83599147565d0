package ctecache

import (
	"math/rand"
	"testing"

	"tmcc/internal/config"
)

func TestReachDifference(t *testing.T) {
	// Page-level CTEs: 8 pages per 64B block; a fill for ppn covers its
	// whole 8-page group. Block-level: only the one page.
	page := New(config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 32 * config.KiB, Assoc: 8})
	blk := New(config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 4 * config.KiB, Assoc: 8})
	page.Fill(80)
	blk.Fill(80)
	if !page.Lookup(81) {
		t.Error("page-level CTE did not cover the adjacent page")
	}
	if blk.Lookup(81) {
		t.Error("block-level CTE unexpectedly covered the adjacent page")
	}
}

func TestPageLevelHasHigherHitRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	page := New(config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 32 * config.KiB, Assoc: 8})
	blk := New(config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 4 * config.KiB, Assoc: 8})
	// A 16K-page working set with locality: page-level reach (8K pages per
	// 64KB) should hit far more often than block-level (1K pages).
	for i := 0; i < 200000; i++ {
		ppn := uint64(rng.Intn(16384))
		if !page.Lookup(ppn) {
			page.Fill(ppn)
		}
		if !blk.Lookup(ppn) {
			blk.Fill(ppn)
		}
	}
	if page.HitRate() <= blk.HitRate() {
		t.Errorf("page-level hit rate %.3f <= block-level %.3f", page.HitRate(), blk.HitRate())
	}
}

func TestCTETableAddr(t *testing.T) {
	c := New(config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 32 * config.KiB, Assoc: 8})
	base := uint64(1 << 30)
	if a := c.CTETableAddr(base, 0); a != base {
		t.Errorf("addr(0) = %#x", a)
	}
	if a := c.CTETableAddr(base, 7); a != base {
		t.Errorf("ppn 7 shares block 0: %#x", a)
	}
	if a := c.CTETableAddr(base, 8); a != base+64 {
		t.Errorf("ppn 8 -> next block: %#x", a)
	}
}

func TestBufferInsertLookup(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(BufEntry{PPN: 10, CTE: 111, HasCTE: true, PTBAddr: 0x40})
	e, ok := b.Lookup(10)
	if !ok || e.CTE != 111 || e.PTBAddr != 0x40 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	if _, ok = b.Lookup(11); ok {
		t.Error("phantom hit")
	}
}

func TestBufferFIFOEviction(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(BufEntry{PPN: 1})
	b.Insert(BufEntry{PPN: 2})
	b.Insert(BufEntry{PPN: 3}) // evicts 1
	if _, ok := b.Lookup(1); ok {
		t.Error("FIFO did not evict oldest")
	}
	if _, ok := b.Lookup(2); !ok {
		t.Error("entry 2 lost")
	}
	if b.Len() != 2 {
		t.Errorf("len = %d", b.Len())
	}
}

func TestBufferSamePPNReplaces(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(BufEntry{PPN: 5, CTE: 1, HasCTE: true})
	b.Insert(BufEntry{PPN: 5, CTE: 2, HasCTE: true})
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
	if e, _ := b.Lookup(5); e.CTE != 2 {
		t.Errorf("CTE = %d, want 2", e.CTE)
	}
}

func TestBufferUpdate(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(BufEntry{PPN: 7, CTE: 100, HasCTE: true, PTBAddr: 0x1000})
	// Matching correction: present, not stale.
	if _, present, stale := b.Update(7, 100); !present || stale {
		t.Errorf("matching update present=%v stale=%v", present, stale)
	}
	// Differing correction: stale, returns the PTB address for lazy fixup.
	addr, present, stale := b.Update(7, 200)
	if !present || !stale || addr != 0x1000 {
		t.Errorf("stale update = %#x %v %v", addr, present, stale)
	}
	if e, _ := b.Lookup(7); e.CTE != 200 {
		t.Error("update did not store corrected CTE")
	}
	// Entry without a CTE is stale by definition.
	b.Insert(BufEntry{PPN: 8, PTBAddr: 0x2000})
	if _, _, stale := b.Update(8, 5); !stale {
		t.Error("no-CTE entry not reported stale")
	}
	if _, present, _ := b.Update(99, 1); present {
		t.Error("absent PPN reported present")
	}
}

// oracleBuffer is the CTE Buffer as it was before the key array: a
// parallel valid flag per entry and a PPN compare through the entry. It is
// kept verbatim as TestBufferMatchesOracle's reference.
type oracleBuffer struct {
	entries []BufEntry
	valid   []bool
	next    int
}

func newOracleBuffer(n int) *oracleBuffer {
	return &oracleBuffer{
		entries: make([]BufEntry, n),
		valid:   make([]bool, n),
	}
}

func (b *oracleBuffer) find(ppn uint64) int {
	for i := range b.entries {
		if b.valid[i] && b.entries[i].PPN == ppn {
			return i
		}
	}
	return -1
}

func (b *oracleBuffer) Insert(e BufEntry) {
	if i := b.find(e.PPN); i >= 0 {
		b.entries[i] = e
		return
	}
	i := b.next
	b.next = (b.next + 1) % len(b.entries)
	b.entries[i] = e
	b.valid[i] = true
}

func (b *oracleBuffer) Lookup(ppn uint64) (BufEntry, bool) {
	if i := b.find(ppn); i >= 0 {
		return b.entries[i], true
	}
	return BufEntry{}, false
}

func (b *oracleBuffer) Update(ppn uint64, correct uint32) (ptbAddr uint64, present, stale bool) {
	i := b.find(ppn)
	if i < 0 {
		return 0, false, false
	}
	e := &b.entries[i]
	stale = !e.HasCTE || e.CTE != correct
	e.CTE = correct
	e.HasCTE = true
	return e.PTBAddr, true, stale
}

func (b *oracleBuffer) Len() int {
	n := 0
	for _, v := range b.valid {
		if v {
			n++
		}
	}
	return n
}

// TestBufferMatchesOracle drives Buffer and oracleBuffer with the same
// seeded Insert/Lookup/Update mix at ablation-ctebuf's buffer sizes, over
// PPN spans from heavy reuse (8) to almost none (2^20), and requires
// identical results. Half the probes target a recently inserted PPN, so
// hits stay frequent even on the widest span.
func TestBufferMatchesOracle(t *testing.T) {
	for _, span := range []int{8, 70, 200, 1 << 20} {
		for _, n := range []int{8, 16, 32, 64, 128} {
			b, o := NewBuffer(n), newOracleBuffer(n)
			rng := rand.New(rand.NewSource(int64(span*1000 + n)))
			recent := make([]uint64, 2*n)
			for op := 0; op < 20000; op++ {
				ppn := uint64(rng.Intn(span))
				if rng.Intn(2) == 0 {
					ppn = recent[rng.Intn(len(recent))]
				}
				switch k := rng.Intn(10); {
				case k < 5:
					e := BufEntry{PPN: ppn, CTE: uint32(rng.Intn(4)), HasCTE: rng.Intn(3) > 0, PTBAddr: uint64(rng.Intn(1<<16)) * 64}
					b.Insert(e)
					o.Insert(e)
					recent[op%len(recent)] = ppn
				case k < 8:
					be, bok := b.Lookup(ppn)
					oe, ook := o.Lookup(ppn)
					if be != oe || bok != ook {
						t.Fatalf("span %d n %d op %d: Lookup(%d) = %+v %v, oracle %+v %v", span, n, op, ppn, be, bok, oe, ook)
					}
				default:
					correct := uint32(rng.Intn(4))
					bAddr, bPresent, bStale := b.Update(ppn, correct)
					oAddr, oPresent, oStale := o.Update(ppn, correct)
					if bAddr != oAddr || bPresent != oPresent || bStale != oStale {
						t.Fatalf("span %d n %d op %d: Update(%d, %d) = (%#x, %v, %v), oracle (%#x, %v, %v)",
							span, n, op, ppn, correct, bAddr, bPresent, bStale, oAddr, oPresent, oStale)
					}
				}
				if b.Len() != o.Len() {
					t.Fatalf("span %d n %d op %d: Len %d, oracle %d", span, n, op, b.Len(), o.Len())
				}
			}
		}
	}
}

// bufSink keeps BenchmarkBufferLoadPTB's results live.
var bufSink BufEntry

// BenchmarkBufferLoadPTB times what one walked PTB costs the CTE Buffer on
// the TMCC access path: loadCTEBuffer's eight inserts (one per PTE) into a
// full 64-entry buffer, then one demand Lookup and the MC response's
// Update. The walk cycles over 1024 PTBs, so every insert scans the whole
// buffer and takes the FIFO victim, as on a TLB-hostile trace.
func BenchmarkBufferLoadPTB(b *testing.B) {
	buf := NewBuffer(64)
	load := func(i int) uint64 {
		ptb := uint64(i&1023) * 64
		for j := uint64(0); j < 8; j++ {
			buf.Insert(BufEntry{PPN: ptb*8 + j, CTE: uint32(j), HasCTE: j < 6, PTBAddr: ptb})
		}
		return ptb*8 + 3
	}
	for i := 0; i < 8; i++ {
		load(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppn := load(i)
		bufSink, _ = buf.Lookup(ppn)
		buf.Update(ppn, uint32(i))
	}
}
