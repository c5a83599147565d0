package freelist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func pool(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

func TestML1LIFO(t *testing.T) {
	f := NewML1(pool(3))
	c, ok := f.Pop()
	if !ok || c != 2 {
		t.Fatalf("pop = %d %v, want 2 (top)", c, ok)
	}
	f.Push(9)
	if c, _ = f.Pop(); c != 9 {
		t.Fatalf("pop after push = %d, want 9", c)
	}
	f.Pop()
	f.Pop()
	if _, ok = f.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
}

func TestDefaultClassesGeometry(t *testing.T) {
	classes := DefaultClasses()
	if len(classes) == 0 {
		t.Fatal("no classes")
	}
	prev := 0
	for _, c := range classes {
		if c.N <= c.M {
			t.Errorf("class %+v: N must exceed M", c)
		}
		if c.SubSize < prev {
			t.Errorf("class sizes not nondecreasing: %d after %d", c.SubSize, prev)
		}
		prev = c.SubSize
		// Fragmentation-free: waste under one sub-chunk per super-chunk.
		if c.Waste() < 0 || c.Waste() >= c.SubSize {
			t.Errorf("class %+v wastes %d bytes", c, c.Waste())
		}
		if c.M > 8 {
			t.Errorf("class %+v: super-chunk too large", c)
		}
	}
	// The paper's Figure 3c example: 1.5KB sub-chunks should exist with
	// low waste.
	m2 := NewML2(classes, NewML1(pool(10)))
	ci, ok := m2.ClassFor(1500)
	if !ok {
		t.Fatal("no class for 1.5KB")
	}
	if classes[ci].SubSize < 1500 || classes[ci].SubSize > 1792 {
		t.Errorf("1.5KB maps to class %+v", classes[ci])
	}
}

// TestNewML2RejectsUnpackableMenu pins the guard that keeps SubChunk's
// uint8 Class and Slot fields exact: a menu SubChunk cannot address is a
// construction-time panic, never a silently truncated slot.
func TestNewML2RejectsUnpackableMenu(t *testing.T) {
	many := make([]SizeClass, 257)
	for i := range many {
		many[i] = SizeClass{SubSize: 16 + i, M: 1, N: 2}
	}
	for _, tc := range []struct {
		name    string
		classes []SizeClass
	}{
		{"N=256", []SizeClass{{SubSize: 16, M: 1, N: 256}}},
		{"257 classes", many},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.HasPrefix(msg, "freelist: ") {
					t.Fatalf("NewML2 recovered %v, want a freelist: panic", r)
				}
			}()
			NewML2(tc.classes, NewML1(pool(10)))
		})
	}
	NewML2([]SizeClass{{SubSize: 16, M: 1, N: 255}}, NewML1(pool(10))) // widest N that fits
}

// TestSubChunkPacked pins SubChunk at 8 bytes: the MC keeps one per OS
// page, so a new field would grow every OSPages-sized array.
func TestSubChunkPacked(t *testing.T) {
	if got := unsafe.Sizeof(SubChunk{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(SubChunk{}) = %d, want 8", got)
	}
}

func TestAllocFreeCycle(t *testing.T) {
	ml1 := NewML1(pool(100))
	m2 := NewML2(nil, ml1)
	start := ml1.Len()

	var subs []SubChunk
	for i := 0; i < 10; i++ {
		sc, ok := m2.Alloc(1500)
		if !ok {
			t.Fatal("alloc failed with chunks available")
		}
		subs = append(subs, sc)
	}
	if ml1.Len() >= start {
		t.Error("ML2 did not draw chunks from ML1")
	}
	if m2.UsedBytes != 15000 {
		t.Errorf("used bytes = %d", m2.UsedBytes)
	}
	for _, sc := range subs {
		if err := m2.Free(sc, 1500); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	if ml1.Len() != start {
		t.Errorf("chunks not fully returned: %d vs %d", ml1.Len(), start)
	}
	if m2.UsedBytes != 0 || m2.HeldChunks != 0 {
		t.Errorf("leak: used=%d held=%d", m2.UsedBytes, m2.HeldChunks)
	}
}

func TestAllocTooBig(t *testing.T) {
	m2 := NewML2(nil, NewML1(pool(10)))
	if _, ok := m2.Alloc(4000); ok {
		t.Error("4000B (incompressible) should not fit any class")
	}
}

func TestAllocExhaustsML1(t *testing.T) {
	m2 := NewML2(nil, NewML1(pool(1)))
	// Largest class may need M>1 chunks; a 3.5KB alloc with 1 chunk may
	// fail; a small alloc must succeed.
	if _, ok := m2.Alloc(256); !ok {
		t.Error("small alloc failed with one chunk free")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m2 := NewML2(nil, NewML1(pool(10)))
	sc, _ := m2.Alloc(1000)
	if err := m2.Free(sc, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m2.Free(sc, 1000); err == nil {
		t.Error("double free not detected")
	}
}

func TestUniqueSubChunkAddresses(t *testing.T) {
	m2 := NewML2(nil, NewML1(pool(200)))
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		sc, ok := m2.Alloc(1500)
		if !ok {
			t.Fatal("alloc failed")
		}
		a := m2.Address(sc)
		if seen[a] {
			t.Fatalf("address %#x reused", a)
		}
		seen[a] = true
	}
}

func TestBlockAddressesCoverSize(t *testing.T) {
	m2 := NewML2(nil, NewML1(pool(50)))
	sc, _ := m2.Alloc(1500)
	blocks := m2.BlockAddresses(sc, 1500)
	if len(blocks) < 1500/64 || len(blocks) > 1500/64+2 {
		t.Errorf("block count = %d for 1500B", len(blocks))
	}
	for _, b := range blocks {
		if b%64 != 0 {
			t.Errorf("block %#x unaligned", b)
		}
	}
}

// Property: random alloc/free sequences conserve chunks and never corrupt
// accounting.
func TestQuickAllocFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ml1 := NewML1(pool(300))
		m2 := NewML2(nil, ml1)
		start := ml1.Len()
		type live struct {
			sc   SubChunk
			size int
		}
		var l []live
		for i := 0; i < 300; i++ {
			if len(l) == 0 || rng.Intn(2) == 0 {
				size := 200 + rng.Intn(3300)
				if sc, ok := m2.Alloc(size); ok {
					l = append(l, live{sc, size})
				}
			} else {
				i := rng.Intn(len(l))
				if err := m2.Free(l[i].sc, l[i].size); err != nil {
					return false
				}
				l = append(l[:i], l[i+1:]...)
			}
		}
		for _, e := range l {
			if err := m2.Free(e.sc, e.size); err != nil {
				return false
			}
		}
		return ml1.Len() == start && m2.UsedBytes == 0 && m2.HeldChunks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
