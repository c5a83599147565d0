package freelist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"tmcc/internal/config"
)

func TestML1LIFO(t *testing.T) {
	f := NewML1(3)
	c, ok := f.Pop()
	if !ok || c != 0 {
		t.Fatalf("pop = %d %v, want 0 (top)", c, ok)
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

// refML1 is the slice-stack ML1 that the bump pointer and returned-chunk
// stack replaced, kept as the oracle for TestML1MatchesReference and under
// refML2: a new list holds every chunk of the pool, lowest on top.
type refML1 struct {
	free    []uint32
	retired map[uint32]bool
}

func newRefML1(pool int) *refML1 {
	f := &refML1{free: make([]uint32, pool)}
	for i := range f.free {
		f.free[i] = uint32(pool - 1 - i)
	}
	return f
}

func (f *refML1) Len() int { return len(f.free) }

func (f *refML1) Pop() (uint32, bool) {
	if len(f.free) == 0 {
		return 0, false
	}
	c := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	return c, true
}

func (f *refML1) Push(c uint32) {
	if f.retired != nil && f.retired[c] {
		return
	}
	f.free = append(f.free, c)
}

func (f *refML1) Retire(c uint32) {
	if f.retired == nil {
		f.retired = make(map[uint32]bool)
	}
	if f.retired[c] {
		return
	}
	f.retired[c] = true
	for i, fc := range f.free {
		if fc == c {
			f.free = append(f.free[:i], f.free[i+1:]...)
			return
		}
	}
}

// stack materialises f's free stack, bottom first, as refML1 holds it.
func (f *ML1) stack() []uint32 {
	var s []uint32
	for c := f.pool; c > f.next; c-- {
		if !f.retired[c-1] {
			s = append(s, c-1)
		}
	}
	return append(s, f.free...)
}

// checkML1MatchesReference replays ops against ML1 and refML1 over equal
// pools, each also feeding an ML2 (the slab one over ML1, refML2 over
// refML1) on a menu whose carves take up to seven chunks, so carves that
// run dry roll back. An op byte pops (0), pushes a chunk the test popped
// (1), pushes an arbitrary chunk (2), retires an arbitrary chunk, free,
// issued or never issued (3), allocates in ML2 (4) or frees an ML2
// allocation (5); the next byte picks the chunk, size or allocation.
// After every op the pop sequence so far, Len, Retired and the whole
// stack must agree.
func checkML1MatchesReference(t *testing.T, pool int, ops []byte) {
	t.Helper()
	got, want := NewML1(uint32(pool)), newRefML1(pool)
	m2, rm2 := NewML2(wideMenu, got), newRefML2(wideMenu, want)
	var held []uint32
	var subs []SubChunk
	var sizes []int
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, int(ops[i+1])
		switch op {
		case 0:
			c, ok := got.Pop()
			rc, rok := want.Pop()
			if c != rc || ok != rok {
				t.Fatalf("op %d: Pop = %d, %v; reference %d, %v", i, c, ok, rc, rok)
			}
			if ok {
				held = append(held, c)
			}
		case 1:
			if len(held) > 0 {
				k := arg % len(held)
				got.Push(held[k])
				want.Push(held[k])
				held = append(held[:k], held[k+1:]...)
			}
		case 2:
			c := uint32(arg % (pool + 2))
			got.Push(c)
			want.Push(c)
		case 3:
			c := uint32(arg % (pool + 2))
			got.Retire(c)
			want.Retire(c)
		case 4:
			size := 1 + arg*15
			sc, ok := m2.Alloc(size)
			rsc, rok := rm2.Alloc(size)
			if sc != rsc || ok != rok {
				t.Fatalf("op %d: Alloc(%d) = %+v, %v; reference %+v, %v", i, size, sc, ok, rsc, rok)
			}
			if ok {
				subs, sizes = append(subs, sc), append(sizes, size)
			}
		case 5:
			if len(subs) > 0 {
				k := arg % len(subs)
				if err := m2.Free(subs[k], sizes[k]); err != nil {
					t.Fatalf("op %d: Free: %v", i, err)
				}
				if err := rm2.Free(subs[k], sizes[k]); err != nil {
					t.Fatalf("op %d: reference Free: %v", i, err)
				}
				subs, sizes = append(subs[:k], subs[k+1:]...), append(sizes[:k], sizes[k+1:]...)
			}
		}
		if got.Len() != want.Len() || got.Retired() != len(want.retired) {
			t.Fatalf("op %d (%d): Len/Retired = %d/%d, reference %d/%d",
				i, op, got.Len(), got.Retired(), want.Len(), len(want.retired))
		}
		if s := got.stack(); !slices.Equal(s, want.free) {
			t.Fatalf("op %d (%d): stack %v, reference %v", i, op, s, want.free)
		}
	}
}

// TestML1MatchesReference checks the bump+LIFO ML1 against the slice
// stack it replaced over seeded random op streams and pool sizes, among
// them an empty pool and one smaller than the widest carve.
func TestML1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pool := range []int{0, 1, 5, 40, 300} {
		for rep := 0; rep < 4; rep++ {
			ops := make([]byte, 6000)
			rng.Read(ops)
			checkML1MatchesReference(t, pool, ops)
		}
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
	m2 := NewML2(classes, NewML1(10))
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
			NewML2(tc.classes, NewML1(10))
		})
	}
	NewML2([]SizeClass{{SubSize: 16, M: 1, N: 255}}, NewML1(10)) // widest N that fits
}

// TestSubChunkPacked pins SubChunk at 8 bytes: the MC keeps one per OS
// page, so a new field would grow every OSPages-sized array.
func TestSubChunkPacked(t *testing.T) {
	if got := unsafe.Sizeof(SubChunk{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(SubChunk{}) = %d, want 8", got)
	}
}

func TestAllocFreeCycle(t *testing.T) {
	ml1 := NewML1(100)
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
	m2 := NewML2(nil, NewML1(10))
	if _, ok := m2.Alloc(4000); ok {
		t.Error("4000B (incompressible) should not fit any class")
	}
}

func TestAllocExhaustsML1(t *testing.T) {
	m2 := NewML2(nil, NewML1(1))
	// Largest class may need M>1 chunks; a 3.5KB alloc with 1 chunk may
	// fail; a small alloc must succeed.
	if _, ok := m2.Alloc(256); !ok {
		t.Error("small alloc failed with one chunk free")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m2 := NewML2(nil, NewML1(10))
	sc, _ := m2.Alloc(1000)
	if err := m2.Free(sc, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m2.Free(sc, 1000); err == nil {
		t.Error("double free not detected")
	}
}

func TestUniqueSubChunkAddresses(t *testing.T) {
	m2 := NewML2(nil, NewML1(200))
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
	m2 := NewML2(nil, NewML1(50))
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
		ml1 := NewML1(300)
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

// refML2 is the pointer-per-super ML2 the slab layout replaced, kept as
// the oracle for FuzzML2MatchesReference: each super-chunk is its own
// struct with its own chunk slice and []int free-slot stack. It draws its
// chunks from refML1, so the oracle side is the old code throughout.
type refML2 struct {
	classes    []SizeClass
	ml1        *refML1
	supers     [][]*refSuper
	partial    [][]int
	retired    [][]int
	UsedBytes  int64
	HeldChunks int
}

type refSuper struct {
	chunks   []uint32
	freeSlot []int
	used     int
}

func newRefML2(classes []SizeClass, ml1 *refML1) *refML2 {
	return &refML2{
		classes: classes,
		ml1:     ml1,
		supers:  make([][]*refSuper, len(classes)),
		partial: make([][]int, len(classes)),
		retired: make([][]int, len(classes)),
	}
}

func (m *refML2) Alloc(size int) (SubChunk, bool) {
	ci := -1
	for i, c := range m.classes {
		if c.SubSize >= size {
			ci = i
			break
		}
	}
	if ci < 0 {
		return SubChunk{}, false
	}
	cl := m.classes[ci]
	if len(m.partial[ci]) == 0 {
		var buf []uint32
		for i := 0; i < cl.M; i++ {
			c, popped := m.ml1.Pop()
			if !popped {
				for _, cc := range buf {
					m.ml1.Push(cc)
				}
				return SubChunk{}, false
			}
			buf = append(buf, c)
		}
		var sc *refSuper
		var si int
		if nr := len(m.retired[ci]); nr > 0 {
			si = m.retired[ci][nr-1]
			m.retired[ci] = m.retired[ci][:nr-1]
			sc = m.supers[ci][si]
			sc.chunks = append(sc.chunks[:0], buf...)
			sc.freeSlot = sc.freeSlot[:0]
		} else {
			sc = &refSuper{chunks: buf}
			m.supers[ci] = append(m.supers[ci], sc)
			si = len(m.supers[ci]) - 1
		}
		for s := cl.N - 1; s >= 0; s-- {
			sc.freeSlot = append(sc.freeSlot, s)
		}
		m.partial[ci] = append(m.partial[ci], si)
		m.HeldChunks += cl.M
	}
	si := m.partial[ci][len(m.partial[ci])-1]
	sc := m.supers[ci][si]
	slot := sc.freeSlot[len(sc.freeSlot)-1]
	sc.freeSlot = sc.freeSlot[:len(sc.freeSlot)-1]
	sc.used++
	if len(sc.freeSlot) == 0 {
		m.partial[ci] = m.partial[ci][:len(m.partial[ci])-1]
	}
	m.UsedBytes += int64(size)
	return SubChunk{Super: uint32(si), Class: uint8(ci), Slot: uint8(slot)}, true
}

func (m *refML2) Free(sc SubChunk, size int) error {
	ci, si := int(sc.Class), int(sc.Super)
	sup := m.supers[ci][si]
	if sup.used <= 0 {
		return fmt.Errorf("double free in super %d", si)
	}
	wasFull := len(sup.freeSlot) == 0
	sup.freeSlot = append(sup.freeSlot, int(sc.Slot))
	sup.used--
	m.UsedBytes -= int64(size)
	if sup.used == 0 {
		for _, c := range sup.chunks {
			m.ml1.Push(c)
		}
		m.HeldChunks -= m.classes[ci].M
		sup.freeSlot = sup.freeSlot[:0]
		sup.chunks = sup.chunks[:0]
		m.retired[ci] = append(m.retired[ci], si)
		for i, p := range m.partial[ci] {
			if p == si {
				m.partial[ci] = append(m.partial[ci][:i], m.partial[ci][i+1:]...)
				break
			}
		}
		return nil
	}
	if wasFull {
		m.partial[ci] = append(m.partial[ci], si)
	}
	return nil
}

func (m *refML2) BlockAddresses(sc SubChunk, size int) []uint64 {
	sup := m.supers[sc.Class][sc.Super]
	off := int(sc.Slot) * m.classes[sc.Class].SubSize
	var out []uint64
	for b := off / config.BlockSize * config.BlockSize; b < off+size; b += config.BlockSize {
		ci := b / ChunkSize
		if ci >= len(sup.chunks) {
			break
		}
		out = append(out, uint64(sup.chunks[ci])*ChunkSize+uint64(b%ChunkSize))
	}
	return out
}

func (m *refML2) Address(sc SubChunk) uint64 {
	sup := m.supers[sc.Class][sc.Super]
	off := int(sc.Slot) * m.classes[sc.Class].SubSize
	return uint64(sup.chunks[off/ChunkSize])*ChunkSize + uint64(off%ChunkSize)
}

// wideMenu adds a one-chunk class of 255 sub-chunks, the widest N a slot
// byte holds, and a five-chunk class to the small end of the menu, so the
// fuzzer reaches slab windows the default menu never carves.
var wideMenu = []SizeClass{{SubSize: 16, M: 1, N: 255}, {SubSize: 128, M: 5, N: 160}, {SubSize: 3584, M: 7, N: 8}}

// checkML2MatchesReference replays ops against the slab ML2 over ML1 and
// the pointer-per-super oracle over refML1, on equal pools, comparing the
// two ML1 stacks too, and fails on the first
// divergence. Each op byte allocates (even: size drawn from the byte and
// its successor) or frees the live sub-chunk it selects (odd), and the
// remaining live sub-chunks are freed at the end.
func checkML2MatchesReference(t *testing.T, chunks int, menu []SizeClass, ops []byte) {
	t.Helper()
	if menu == nil {
		menu = DefaultClasses()
	}
	ml1, ref1 := NewML1(uint32(chunks)), newRefML1(chunks)
	got, want := NewML2(menu, ml1), newRefML2(menu, ref1)
	maxSize := menu[len(menu)-1].SubSize + 64
	type live struct {
		sc   SubChunk
		size int
	}
	var l []live
	step := func(i int, what string) {
		if got.UsedBytes != want.UsedBytes || got.HeldChunks != want.HeldChunks {
			t.Fatalf("op %d (%s): UsedBytes/HeldChunks = %d/%d, reference %d/%d",
				i, what, got.UsedBytes, got.HeldChunks, want.UsedBytes, want.HeldChunks)
		}
		if s := ml1.stack(); !slices.Equal(s, ref1.free) {
			t.Fatalf("op %d (%s): ML1 free list %v, reference %v", i, what, s, ref1.free)
		}
		if err := got.Audit(); err != nil {
			t.Fatalf("op %d (%s): Audit: %v", i, what, err)
		}
	}
	free := func(i, k int) {
		e := l[k]
		if err := got.Free(e.sc, e.size); err != nil {
			t.Fatalf("op %d: Free(%+v): %v", i, e.sc, err)
		}
		if err := want.Free(e.sc, e.size); err != nil {
			t.Fatalf("op %d: reference Free(%+v): %v", i, e.sc, err)
		}
		l = append(l[:k], l[k+1:]...)
		step(i, "free")
	}
	for i := 0; i < len(ops); i++ {
		if ops[i]%2 == 1 && len(l) > 0 {
			free(i, int(ops[i]/2)%len(l))
			continue
		}
		size := 1
		if i+1 < len(ops) {
			size += (int(ops[i])<<8 | int(ops[i+1])) % maxSize
			i++
		}
		sc, ok := got.Alloc(size)
		rsc, rok := want.Alloc(size)
		if sc != rsc || ok != rok {
			t.Fatalf("op %d: Alloc(%d) = %+v, %v; reference %+v, %v", i, size, sc, ok, rsc, rok)
		}
		if ok {
			if a, ra := got.Address(sc), want.Address(sc); a != ra {
				t.Fatalf("op %d: Address(%+v) = %#x, reference %#x", i, sc, a, ra)
			}
			if b, rb := got.BlockAddresses(sc, size), want.BlockAddresses(sc, size); !slices.Equal(b, rb) {
				t.Fatalf("op %d: BlockAddresses(%+v, %d) = %v, reference %v", i, sc, size, b, rb)
			}
			l = append(l, live{sc, size})
		}
		step(i, "alloc")
	}
	for len(l) > 0 {
		free(len(ops), len(l)-1)
	}
	if got.HeldChunks != 0 || ml1.Len() != chunks {
		t.Fatalf("drained ML2 holds %d chunks, ML1 has %d of %d", got.HeldChunks, ml1.Len(), chunks)
	}
}

// FuzzML2MatchesReference checks that the slab ML2 hands out the same
// sub-chunks, at the same addresses, with the same byte and chunk
// accounting and the same ML1 free list as the pointer-per-super oracle,
// on small pools where carves fail and supers retire and recycle often.
func FuzzML2MatchesReference(f *testing.F) {
	f.Add(uint8(40), false, []byte{0, 10, 0, 200, 1, 0, 255, 3, 5, 7, 2, 9, 9})
	f.Add(uint8(3), true, []byte{0, 1, 0, 1, 0, 1, 0, 1, 1, 3, 5, 13, 255, 255, 13})
	f.Fuzz(func(t *testing.T, chunks uint8, wide bool, ops []byte) {
		var menu []SizeClass
		if wide {
			menu = wideMenu
		}
		checkML2MatchesReference(t, int(chunks), menu, ops)
	})
}

// TestML2MatchesReference runs the fuzzer's comparison over seeded random
// op streams at several pool sizes, so go test covers it without -fuzz.
func TestML2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, chunks := range []int{0, 1, 8, 40, 300} {
		for _, menu := range [][]SizeClass{nil, wideMenu} {
			ops := make([]byte, 4000)
			rng.Read(ops)
			checkML2MatchesReference(t, chunks, menu, ops)
		}
	}
}
