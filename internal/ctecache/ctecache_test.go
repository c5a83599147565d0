package ctecache

import (
	"fmt"
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
	const n = 200000
	var pageHits, blkHits int
	for i := 0; i < n; i++ {
		ppn := uint64(rng.Intn(16384))
		if page.Lookup(ppn) {
			pageHits++
		} else {
			page.Fill(ppn)
		}
		if blk.Lookup(ppn) {
			blkHits++
		} else {
			blk.Fill(ppn)
		}
	}
	if pageHits <= blkHits {
		t.Errorf("page-level hit rate %.3f <= block-level %.3f", float64(pageHits)/n, float64(blkHits)/n)
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

// TestBlockForMatchesDivision compares blockFor and CTETableAddr with
// division by the pages per block at 4 and 32 KiB of reach (1 and 8
// pages, a shift) and 12 KiB (3 pages, the divide), on seeded PPNs and
// at the edges of the uint64 range.
func TestBlockForMatchesDivision(t *testing.T) {
	const base = uint64(1 << 30)
	for _, reach := range []int{4, 32, 12} {
		c := New(config.CTECacheCfg{SizeKB: 64, ReachPerBlock: reach * config.KiB, Assoc: 8})
		ppb := uint64(reach / 4)
		ppns := []uint64{0, 1, 2, 3, 7, 8, 9, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1}
		rng := rand.New(rand.NewSource(int64(reach)))
		for range 100000 {
			ppns = append(ppns, uint64(rng.Int63n(1<<40)))
		}
		for _, ppn := range ppns {
			if got, want := c.blockFor(ppn), ppn/ppb; got != want {
				t.Fatalf("%d KiB reach: blockFor(%d) = %d, want %d", reach, ppn, got, want)
			}
			if got, want := c.CTETableAddr(base, ppn), base+ppn/ppb*config.BlockSize; got != want {
				t.Fatalf("%d KiB reach: CTETableAddr(%#x, %d) = %#x, want %#x", reach, base, ppn, got, want)
			}
		}
	}
}

// lookup is the test's by-PPN read through the slot API.
func lookup(b *Buffer, ppn uint64) (BufEntry, bool) {
	if i := b.Lookup(ppn); i >= 0 {
		return b.At(i), true
	}
	return BufEntry{}, false
}

func TestBufferInsertLookup(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(BufEntry{PPN: 10, CTE: 111, HasCTE: true, PTBSlot: 3})
	e, ok := lookup(b, 10)
	if !ok || e.CTE != 111 || e.PTBSlot != 3 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	if b.Lookup(11) >= 0 {
		t.Error("phantom hit")
	}
}

func TestBufferFIFOEviction(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(BufEntry{PPN: 1})
	b.Insert(BufEntry{PPN: 2})
	b.Insert(BufEntry{PPN: 3}) // evicts 1
	if b.Lookup(1) >= 0 {
		t.Error("FIFO did not evict oldest")
	}
	if b.Lookup(2) < 0 {
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
	if e, _ := lookup(b, 5); e.CTE != 2 {
		t.Errorf("CTE = %d, want 2", e.CTE)
	}
}

func TestBufferUpdate(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(BufEntry{PPN: 7, CTE: 100, HasCTE: true, PTBSlot: 9})
	i := b.Lookup(7)
	// Matching correction: not stale.
	if _, stale := b.UpdateAt(i, 100); stale {
		t.Error("matching update reported stale")
	}
	// Differing correction: stale, returns the PTB slot for lazy fixup.
	if ptb, stale := b.UpdateAt(i, 200); !stale || ptb != 9 {
		t.Errorf("stale update = %d %v", ptb, stale)
	}
	if e, _ := lookup(b, 7); e.CTE != 200 {
		t.Error("update did not store corrected CTE")
	}
	// Entry without a CTE is stale by definition.
	b.Insert(BufEntry{PPN: 8, PTBSlot: 2})
	if _, stale := b.UpdateAt(b.Lookup(8), 5); !stale {
		t.Error("no-CTE entry not reported stale")
	}
}

// TestNewBufferRejectsBadSizes pins NewBuffer's accepted range: the slot,
// hint and count types are sized for MaxBufferEntries, and sim rejects
// anything outside the range with ErrGeometry before building.
func TestNewBufferRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, MaxBufferEntries + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBuffer(%d) did not panic", n)
				}
			}()
			NewBuffer(n)
		}()
	}
	if b := NewBuffer(MaxBufferEntries); len(b.keys) != MaxBufferEntries {
		t.Errorf("NewBuffer(MaxBufferEntries) holds %d entries", len(b.keys))
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

func (b *oracleBuffer) Update(ppn uint64, correct uint32) (ptbSlot int, present, stale bool) {
	i := b.find(ppn)
	if i < 0 {
		return 0, false, false
	}
	e := &b.entries[i]
	stale = !e.HasCTE || e.CTE != correct
	e.CTE = correct
	e.HasCTE = true
	return e.PTBSlot, true, stale
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

// bufOp is one Buffer operation: an Insert of e, a Lookup of e.PPN, or
// an update of e.PPN's entry with the correction e.CTE.
type bufOp struct {
	kind int // opInsert, opLookup or opUpdate
	e    BufEntry
}

const (
	opInsert = iota
	opLookup
	opUpdate
)

// applyBufOp runs op on the Buffer, through its slot API, and on the
// oracle, through the by-PPN API the Buffer had before slots. It reports
// the first disagreement: a probe's slot or entry, an update's PTB slot or
// staleness, or the live-entry count.
func applyBufOp(b *Buffer, o *oracleBuffer, op bufOp) error {
	switch op.kind {
	case opInsert:
		b.Insert(op.e)
		o.Insert(op.e)
	case opLookup:
		bi, oi := b.Lookup(op.e.PPN), o.find(op.e.PPN)
		oe, _ := o.Lookup(op.e.PPN)
		var be BufEntry
		if bi >= 0 {
			be = b.At(bi)
		}
		if bi != oi || be != oe {
			return fmt.Errorf("Lookup(%d) = slot %d %+v, oracle slot %d %+v", op.e.PPN, bi, be, oi, oe)
		}
	case opUpdate:
		oPTB, oPresent, oStale := o.Update(op.e.PPN, op.e.CTE)
		bi := b.Lookup(op.e.PPN)
		var bPTB int
		var bStale bool
		if bi >= 0 {
			bPTB, bStale = b.UpdateAt(bi, op.e.CTE)
		}
		if bPTB != oPTB || (bi >= 0) != oPresent || bStale != oStale {
			return fmt.Errorf("update(%d, %d) = (%d, %v, %v), oracle (%d, %v, %v)",
				op.e.PPN, op.e.CTE, bPTB, bi >= 0, bStale, oPTB, oPresent, oStale)
		}
	}
	if b.Len() != o.Len() {
		return fmt.Errorf("Len %d, oracle %d", b.Len(), o.Len())
	}
	return nil
}

// recountEvery is how often, in ops, the oracle test and the fuzzer run
// recountAll: a miscounted bucket stays wrong, so a periodic recount
// catches it, at a fraction of a per-op recount's cost at 16 buckets
// per entry (tmccdebug builds also check every Insert's buckets).
const recountEvery = 64

// recountAll re-derives every bucket count from keys and checks the
// stored counts and the FIFO cursor against it.
func recountAll(b *Buffer) error {
	n := make([]uint16, len(b.buckets))
	for _, k := range b.keys {
		if k != 0 {
			n[k&b.mask]++
		}
	}
	for bk := range n {
		if b.buckets[bk].n != n[bk] {
			return fmt.Errorf("bucket %d counts %d live keys, keys hold %d", bk, b.buckets[bk].n, n[bk])
		}
	}
	if b.next < 0 || b.next >= len(b.keys) {
		return fmt.Errorf("FIFO cursor %d outside %d entries", b.next, len(b.keys))
	}
	return nil
}

// collide is the collision span's PPN shift: every PPN it draws shares
// its low 20 bits, so all of them land in one bucket at every size.
const collide = 20

// TestBufferMatchesOracle drives Buffer and oracleBuffer with the same
// seeded Insert/Lookup/update mix and requires identical results, slot
// for slot, with every bucket count recounted from keys every
// recountEvery ops. The sizes cover ablation-ctebuf's and two whose slots and
// bucket counts exceed a byte. The PPN spans run from heavy reuse (8) to
// almost none (2^20), plus a collision span where every PPN shares one
// bucket, so probes fall back to the key scan and the bucket's hint goes
// stale. The two large sizes run only on the spans wide enough to fill
// them. Half the probes target a recently inserted PPN, so hits stay
// frequent even on the widest span.
func TestBufferMatchesOracle(t *testing.T) {
	for _, span := range []int{8, 70, 200, 1 << 20, -3000} {
		for _, n := range []int{8, 16, 32, 64, 128, 300, 1024} {
			if n > 128 && span > 0 && span < 1<<20 {
				continue
			}
			b, o := NewBuffer(n), newOracleBuffer(n)
			rng := rand.New(rand.NewSource(int64(span*1000 + n)))
			draw := func() uint64 { return uint64(rng.Intn(span)) }
			if span < 0 {
				draw = func() uint64 { return uint64(rng.Intn(-span)) << collide }
			}
			recent := make([]uint64, 2*n)
			for op := 0; op < 20000; op++ {
				ppn := draw()
				if rng.Intn(2) == 0 {
					ppn = recent[rng.Intn(len(recent))]
				}
				var bo bufOp
				switch k := rng.Intn(10); {
				case k < 5:
					bo = bufOp{opInsert, BufEntry{PPN: ppn, CTE: uint32(rng.Intn(4)), HasCTE: rng.Intn(3) > 0, PTBSlot: rng.Intn(1 << 16)}}
					recent[op%len(recent)] = ppn
				case k < 8:
					bo = bufOp{opLookup, BufEntry{PPN: ppn}}
				default:
					bo = bufOp{opUpdate, BufEntry{PPN: ppn, CTE: uint32(rng.Intn(4))}}
				}
				err := applyBufOp(b, o, bo)
				if err == nil && (op%recountEvery == 0 || op == 19999) {
					err = recountAll(b)
				}
				if err != nil {
					t.Fatalf("span %d n %d op %d: %v", span, n, op, err)
				}
			}
		}
	}
}

// FuzzBufferMatchesOracle decodes an entry count and an op stream from the
// fuzz bytes and runs it through applyBufOp. Bytes 0-1 give the count
// (1..300, so slots exceed a byte); each op then takes three bytes: b0
// selects the op (low 2 bits: insert, insert, lookup, update), the CTE
// (bits 2-3), HasCTE (bit 4) and the collision shift (bit 5); b1 and b2
// give the PPN's low 16 bits. Ops past maxFuzzOps are ignored, which keeps
// each input, and the fuzzer's minimization of it, fast.
func FuzzBufferMatchesOracle(f *testing.F) {
	const maxFuzzOps = 1024
	seed := func(n int, ops ...[3]byte) []byte {
		out := []byte{byte(n - 1), byte((n - 1) >> 8)}
		for _, op := range ops {
			out = append(out, op[:]...)
		}
		return out
	}
	// Collision span: 80 colliding PPNs into 64 entries, then probes of
	// the evicted, the resident and the last-filled ones.
	var coll [][3]byte
	for i := 0; i < 80; i++ {
		coll = append(coll, [3]byte{0x30, byte(i), 0})
	}
	for i := 0; i < 80; i += 7 {
		coll = append(coll, [3]byte{0x22, byte(i), 0}, [3]byte{0x27, byte(i), 0})
	}
	f.Add(seed(64, coll...))
	// Reload-heavy stream: one PTB's eight PPNs re-walked while resident,
	// each walk followed by a probe and an update, with a second PTB
	// interleaved now and then.
	var reload [][3]byte
	for w := 0; w < 40; w++ {
		base := byte(8)
		if w%5 == 4 {
			base = 200
		}
		for j := byte(0); j < 8; j++ {
			reload = append(reload, [3]byte{0x10 | (j&3)<<2, base + j, 1})
		}
		reload = append(reload, [3]byte{0x02, base + 3, 1}, [3]byte{0x0b, base + 3, 1})
	}
	f.Add(seed(64, reload...))
	f.Add(seed(1, [3]byte{0x10, 1, 0}, [3]byte{0x10, 2, 0}, [3]byte{0x02, 1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + (int(data[0])|int(data[1])<<8)%300
		b, o := NewBuffer(n), newOracleBuffer(n)
		for p := 2; p+3 <= len(data) && p < 2+3*maxFuzzOps; p += 3 {
			b0 := data[p]
			ppn := uint64(data[p+1]) | uint64(data[p+2])<<8
			if b0&0x20 != 0 {
				ppn <<= collide
			}
			e := BufEntry{PPN: ppn, CTE: uint32(b0 >> 2 & 3), HasCTE: b0&0x10 != 0, PTBSlot: int(data[p+2])}
			kind := [4]int{opInsert, opInsert, opLookup, opUpdate}[b0&3]
			err := applyBufOp(b, o, bufOp{kind, e})
			if err == nil && (p-2)/3%recountEvery == 0 {
				err = recountAll(b)
			}
			if err != nil {
				t.Fatalf("n %d op at byte %d: %v", n, p, err)
			}
		}
		if err := recountAll(b); err != nil {
			t.Fatalf("n %d at the end: %v", n, err)
		}
	})
}

// bufSink keeps BenchmarkBufferLoadPTB's results live.
var bufSink BufEntry

// BenchmarkBufferLoadPTB times what one walked PTB costs the CTE Buffer on
// the TMCC access path: loadCTEBuffer's eight inserts (one per PTE) into a
// full 64-entry buffer, then one demand Lookup and the MC response's
// UpdateAt on its slot. In /miss the walk cycles over 1024 PTBs, so every
// insert takes the FIFO victim, as on a TLB-hostile trace. In /reload the
// same PTB is re-walked while its entries are resident, so every insert
// finds its entry by the bucket's hint. PTB i maps pages 8i..8i+7, the
// sequential runs the OS allocator model hands out.
func BenchmarkBufferLoadPTB(b *testing.B) {
	for _, bc := range []struct {
		name string
		ptbs int
	}{{"miss", 1024}, {"reload", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := NewBuffer(64)
			load := func(i int) uint64 {
				ptb := uint64(i % bc.ptbs)
				for j := uint64(0); j < 8; j++ {
					buf.Insert(BufEntry{PPN: ptb*8 + j, CTE: uint32(j), HasCTE: j < 6, PTBSlot: int(ptb)})
				}
				return ptb*8 + 3
			}
			for i := 0; i < 8; i++ {
				load(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := buf.Lookup(load(i))
				bufSink = buf.At(s)
				buf.UpdateAt(s, uint32(i))
			}
		})
	}
}
