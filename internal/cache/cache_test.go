package cache

import (
	"math/rand"
	"testing"
)

func TestInsertAccess(t *testing.T) {
	c := New(64*64, 4) // 64 lines
	if c.Lookup(5) >= 0 {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, 0)
	if c.Lookup(5) < 0 {
		t.Fatal("miss after insert")
	}
}

func TestVictimReported(t *testing.T) {
	c := New(4*64, 4) // one set, 4 ways
	for b := uint64(0); b < 4; b++ {
		if v := c.Insert(b, FlagDirty); v.Valid {
			t.Fatalf("unexpected victim %v filling empty set", v)
		}
	}
	v := c.Insert(9, 0)
	if !v.Valid || v.Block != 0 || v.Flags&FlagDirty == 0 {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
}

func TestFlagsLifecycle(t *testing.T) {
	c := New(16*64, 4)
	c.Insert(3, FlagCompressedPTB)
	s := c.Lookup(3)
	if s < 0 || c.FlagsAt(s) != FlagCompressedPTB {
		t.Fatalf("slot %d flags = %x", s, c.FlagsAt(s))
	}
	c.OrFlagsAt(s, FlagDirty)
	if f := c.FlagsAt(s); f != FlagCompressedPTB|FlagDirty {
		t.Fatalf("flags after Or = %x", f)
	}
	c.SetFlagsAt(s, 0)
	if f := c.FlagsAt(s); f != 0 {
		t.Fatalf("flags after Set = %x", f)
	}
	c.OrFlagsAt(s, FlagDirty)
	if f := c.InvalidateAt(s); f != FlagDirty {
		t.Fatalf("invalidate = %x", f)
	}
	if c.Probe(3) >= 0 {
		t.Error("present after invalidate")
	}
	if c.Insert(3, 0).Valid {
		t.Error("refill of the invalidated slot reported a victim")
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := New(4*64, 4) // one set: Probe must not change the LRU victim
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, 0)
	}
	if s := c.Probe(0); s < 0 || s != c.Probe(0) {
		t.Fatalf("Probe(0) = %d, want a stable slot", s)
	}
	if c.Probe(7) >= 0 {
		t.Error("Probe hit an absent block")
	}
	if v := c.Insert(10, 0); v.Block != 0 {
		t.Errorf("victim %d, want 0: Probe refreshed recency", v.Block)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(4*64, 4)
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, 0)
	}
	c.Lookup(0)
	v := c.Insert(10, 0)
	if v.Block != 1 {
		t.Fatalf("victim %d, want 1 (LRU)", v.Block)
	}
}

func TestStridePrefetcher(t *testing.T) {
	p := NewStride(2)
	var got []uint64
	for b := uint64(100); b < 112; b += 3 {
		got = p.Observe(b)
	}
	if len(got) != 2 || got[0] != 109+3 || got[1] != 109+6 {
		t.Fatalf("stride suggestions = %v", got)
	}
	// Irregular stream suggests nothing.
	rng := rand.New(rand.NewSource(1))
	p2 := NewStride(2)
	for i := 0; i < 50; i++ {
		if out := p2.Observe(uint64(rng.Intn(1 << 20))); out != nil && i > 2 {
			t.Fatalf("irregular stream prefetched %v", out)
		}
	}
}

func TestThrottleTurnsOff(t *testing.T) {
	th := NewThrottle(10)
	for i := 0; i < 10; i++ {
		th.Issued() // no useful credits
	}
	if th.Enabled() {
		t.Error("throttle stayed on at 0% accuracy")
	}
	th2 := NewThrottle(10)
	for i := 0; i < 10; i++ {
		th2.Useful()
		th2.Issued()
	}
	if !th2.Enabled() {
		t.Error("throttle turned off at 100% accuracy")
	}
}

func TestSets(t *testing.T) {
	for _, tc := range []struct{ size, ways, want int }{
		{8 << 20, 16, 8192},
		{12 * 64, 4, 3},
		{2 * 64, 4, 1}, // ways clamp to the two lines
		{0, 8, 0},
		{63, 8, 0},
		{64 * 64, 0, 0},
		{64 * 64, -1, 0},
	} {
		if got := Sets(tc.size, tc.ways); got != tc.want {
			t.Errorf("Sets(%d, %d) = %d, want %d", tc.size, tc.ways, got, tc.want)
		}
	}
}

// refLRU is the reference model for TestCacheMatchesReference: per-way
// tags and flags plus a per-set recency list of way numbers, least
// recently used first. A fill takes the set's first invalid way, else the
// list's head.
type refLRU struct {
	tag    [][]uint64 // [set][way], block+1; 0 = invalid
	flag   [][]uint8
	recent [][]int // [set] valid ways, LRU first
}

func newRefLRU(sets, ways int) *refLRU {
	m := &refLRU{}
	for s := 0; s < sets; s++ {
		m.tag = append(m.tag, make([]uint64, ways))
		m.flag = append(m.flag, make([]uint8, ways))
		m.recent = append(m.recent, nil)
	}
	return m
}

func (m *refLRU) set(block uint64) int { return int(block % uint64(len(m.tag))) }

// probe returns block's way, or -1.
func (m *refLRU) probe(block uint64) int {
	for w, t := range m.tag[m.set(block)] {
		if t == block+1 {
			return w
		}
	}
	return -1
}

// drop removes way w from set s's recency list.
func (m *refLRU) drop(s, w int) {
	for i, x := range m.recent[s] {
		if x == w {
			m.recent[s] = append(m.recent[s][:i], m.recent[s][i+1:]...)
			return
		}
	}
}

// touch makes way w the most recently used of set s.
func (m *refLRU) touch(s, w int) {
	m.drop(s, w)
	m.recent[s] = append(m.recent[s], w)
}

func (m *refLRU) lookup(block uint64) int {
	w := m.probe(block)
	if w < 0 {
		return -1
	}
	m.touch(m.set(block), w)
	return w
}

func (m *refLRU) insert(block uint64, flags uint8) Victim {
	s := m.set(block)
	w := -1
	for i, t := range m.tag[s] {
		if t == 0 {
			w = i
			break
		}
	}
	if w < 0 {
		w = m.recent[s][0]
	}
	var out Victim
	if t := m.tag[s][w]; t != 0 && t != block+1 {
		out = Victim{Block: t - 1, Flags: m.flag[s][w], Valid: true}
	}
	m.tag[s][w], m.flag[s][w] = block+1, flags
	m.touch(s, w)
	return out
}

func (m *refLRU) invalidate(block uint64, w int) uint8 {
	s := m.set(block)
	f := m.flag[s][w]
	m.tag[s][w], m.flag[s][w] = 0, 0
	m.drop(s, w)
	return f
}

// refOps is the op mix of the reference comparison: kind 0-3 Lookup, 4-6
// Insert after a miss (as the access path fills), 7 InvalidateAt, 8
// SetFlagsAt, 9 OrFlagsAt and 10 Insert whatever the probe found, as the
// Figure 2 victim shadow does after every probe.
const refOps = 11

// matchReference drives Cache and refLRU at sets x ways with the same
// sequence of n ops, each drawn by next as (kind, block, flags), and
// requires identical hit/miss outcomes, victims and flags. Each side acts
// on the slot its own probe returned.
func matchReference(t testing.TB, sets, ways, n int, next func() (int, uint64, uint8)) {
	t.Helper()
	c := New(sets*ways*64, ways)
	m := newRefLRU(sets, ways)
	for op := 0; op < n; op++ {
		k, b, f := next()
		cs, ms := c.Probe(b), m.probe(b)
		if (cs >= 0) != (ms >= 0) {
			t.Fatalf("op %d: Probe(%d) = %d, reference way %d", op, b, cs, ms)
		}
		switch {
		case k < 4:
			cs, ms = c.Lookup(b), m.lookup(b)
			if (cs >= 0) != (ms >= 0) {
				t.Fatalf("op %d: Lookup(%d) = %d, reference way %d", op, b, cs, ms)
			}
		case k < 7 || k == 10:
			if k < 7 && cs >= 0 {
				break
			}
			if cv, mv := c.Insert(b, f), m.insert(b, f); cv != mv {
				t.Fatalf("op %d: Insert(%d) victim %+v, reference %+v", op, b, cv, mv)
			}
		case k == 7:
			if cs >= 0 {
				if cf, mf := c.InvalidateAt(cs), m.invalidate(b, ms); cf != mf {
					t.Fatalf("op %d: InvalidateAt(%d) flags %x, reference %x", op, b, cf, mf)
				}
			}
		default:
			if cs < 0 {
				break
			}
			s := m.set(b)
			if k == 8 {
				c.SetFlagsAt(cs, f)
				m.flag[s][ms] = f
			} else {
				c.OrFlagsAt(cs, f)
				m.flag[s][ms] |= f
			}
			if cf, mf := c.FlagsAt(cs), m.flag[s][ms]; cf != mf {
				t.Fatalf("op %d: flags of %d = %x, reference %x", op, b, cf, mf)
			}
		}
	}
}

// TestCacheMatchesReference runs the reference comparison on a seeded op
// mix at the simulator's geometries (8 ways: L1, L2 and the CTE cache; 16:
// L3 and the victim shadow) and at small, odd and direct-mapped ones.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name       string
		sets, ways int
	}{
		{"pow2-16x4", 16, 4},
		{"odd-3x4", 3, 4},
		{"direct-5x1", 5, 1},
		{"pow2-8x8", 8, 8},
		{"full-4x16", 4, 16},
		{"odd-3x12", 3, 12},
	} {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.sets*100 + g.ways)))
			span := 3 * g.sets * g.ways
			matchReference(t, g.sets, g.ways, 200000, func() (int, uint64, uint8) {
				return rng.Intn(refOps), uint64(rng.Intn(span)), uint8(rng.Intn(8))
			})
		})
	}
}

// FuzzCacheMatchesReference runs the reference comparison on a decoded
// geometry, sets 1..8 and ways 1..16 from the first two bytes, and an op
// per later byte pair: kind from the first, block (over twice the
// cache's lines) and flags from the second.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 15, 10, 1, 10, 1, 0, 1, 7, 1, 10, 1})
	f.Add([]byte{7, 7, 4, 3, 5, 9, 10, 3, 0, 9, 7, 9, 8, 200})
	f.Add([]byte{2, 11, 6, 40, 6, 41, 6, 42, 10, 40, 3, 41, 9, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets, ways := 1+int(data[0])%8, 1+int(data[1])%16
		ops := data[2:]
		span := 2 * sets * ways
		matchReference(t, sets, ways, len(ops)/2, func() (int, uint64, uint8) {
			k, x := ops[0], ops[1]
			ops = ops[2:]
			return int(k) % refOps, uint64(x) % uint64(span), x >> 5
		})
	})
}

// cacheSink keeps BenchmarkCacheLookupInsert's results live.
var cacheSink Victim

// BenchmarkCacheLookupInsert times one L3 access at the default geometry
// (8 MiB, 16-way): a Lookup, plus an Insert on a miss. Blocks are uniform
// over twice the cache's lines (an xorshift stream, so no per-op table
// read), which makes the LRU steady state about half hits.
func BenchmarkCacheLookupInsert(b *testing.B) {
	const size, ways = 8 << 20, 16
	const span = 2 * size / 64 // a power of two: the mask below is exact
	c := New(size, ways)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x & (span - 1)
	}
	for i := 0; i < 4*span; i++ {
		if blk := next(); c.Lookup(blk) < 0 {
			c.Insert(blk, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blk := next(); c.Lookup(blk) < 0 {
			cacheSink = c.Insert(blk, 0)
		}
	}
}
