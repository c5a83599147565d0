// Package freelist implements the two-level free-space tracking of Section
// IV-B (Figure 3): an ML1 Free List of 4KB chunks (the hardware stores the
// linked-list pointers inside the free chunks themselves, so it costs no
// dedicated DRAM), and per-size-class ML2 Free Lists whose equally-sized
// sub-chunks are carved fragmentation-free out of super-chunks — groups of
// M interlinked 4KB chunks evenly divided into N sub-chunks, with M and N
// chosen to minimize (4KB*M) mod N.
package freelist

import (
	"fmt"
	"math"

	"tmcc/internal/check"
	"tmcc/internal/config"
)

// ChunkSize is the ML1 chunk granularity (one page).
const ChunkSize = 4096

// ML1 tracks free 4KB DRAM chunks as a LIFO (the paper pushes freed chunks
// to the top and pops from the top). Chunks the RAS layer has retired are
// permanently out of circulation: Push drops them and any free copy is
// removed at retirement, so a faulty frame can never be re-issued — not
// even through ML2's direct carve path, which pops chunks from here.
type ML1 struct {
	free    []uint32        // chunk numbers
	retired map[uint32]bool // nil until the first Retire
}

// NewML1 starts with the given chunks free, in order. It takes ownership
// of chunks: the caller must not use the slice afterwards.
func NewML1(chunks []uint32) *ML1 { return &ML1{free: chunks} }

// Len reports how many chunks are free.
func (f *ML1) Len() int { return len(f.free) }

// Pop takes a chunk from the top; ok=false when empty.
func (f *ML1) Pop() (uint32, bool) {
	if len(f.free) == 0 {
		return 0, false
	}
	c := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	return c, true
}

// Push returns a chunk to the top; retired chunks are silently dropped.
func (f *ML1) Push(c uint32) {
	if f.retired != nil && f.retired[c] {
		return
	}
	f.free = append(f.free, c)
}

// Retire withdraws a chunk from circulation for good: a later Push is a
// no-op, and a free copy (belt and braces — the RAS layer retires frames
// under resident pages, which are never free) is removed immediately.
// Idempotent.
func (f *ML1) Retire(c uint32) {
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

// Retired reports how many chunks have been retired.
func (f *ML1) Retired() int { return len(f.retired) }

// SizeClass is one ML2 sub-chunk size with its super-chunk geometry.
type SizeClass struct {
	SubSize int // bytes per sub-chunk
	M       int // 4KB chunks per super-chunk
	N       int // sub-chunks per super-chunk
}

// Waste returns the bytes lost per super-chunk: (4096*M) mod N scaled to
// bytes — with SubSize = floor(4096*M/N) the leftover is 4096*M - N*SubSize.
func (c SizeClass) Waste() int { return ChunkSize*c.M - c.N*c.SubSize }

// DefaultClasses builds the zsmalloc-like class menu the paper's ML2 needs:
// one class roughly every 256 bytes from 256B to 3.5KB. For each target
// size we search M in 1..8 (larger classes need bigger super-chunks for
// N > M to hold) and pick the (M, N) whose sub-chunk size is closest at
// minimal waste.
func DefaultClasses() []SizeClass {
	var out []SizeClass
	for target := 256; target <= 3584; target += 256 {
		best := SizeClass{}
		bestWaste := -1
		for m := 1; m <= 8; m++ {
			n := ChunkSize * m / target
			if n <= m || n == 0 {
				continue
			}
			c := SizeClass{SubSize: ChunkSize * m / n, M: m, N: n}
			if c.SubSize < target {
				// Sub-chunk must hold a compressed page of `target` bytes.
				n--
				if n <= m || n == 0 {
					continue
				}
				c = SizeClass{SubSize: ChunkSize * m / n, M: m, N: n}
			}
			if w := c.Waste(); bestWaste < 0 || w < bestWaste || (w == bestWaste && c.SubSize < best.SubSize) {
				best, bestWaste = c, w
			}
		}
		if bestWaste >= 0 {
			out = append(out, best)
		}
	}
	return out
}

// SubChunk identifies one allocation: its super-chunk id, size class, and
// slot. It is packed to 8 bytes because the MC keeps one per OS page:
// Super is below the chunk pool, and NewML2 rejects a class menu whose
// class count or N does not fit the uint8 fields.
type SubChunk struct {
	Super uint32
	Class uint8
	Slot  uint8
}

// superChunk is the bookkeeping for one carved group of chunks. Its chunk
// numbers and its free-slot stack live in its class's slabs (classList).
// A retired super-chunk (fully freed, awaiting recycling) is !live and
// holds no used or free slot.
type superChunk struct {
	used int  // slots allocated
	free int  // depth of the free-slot stack
	live bool // holds M chunks from ML1
}

// classList is one size class's free list. Its super-chunks sit by value
// in supers; super si's M chunk numbers are chunks[si*M:][:M] and its LIFO
// free-slot stack is slots[si*N:][:free], top last. N <= 255 (NewML2), so
// a slot fits a byte.
type classList struct {
	supers []superChunk
	chunks []uint32
	slots  []uint8
	// partial lists super-chunk indexes with free slots; LIFO so
	// recently-freed-into supers fill first (paper: allocate from the top,
	// push newly-partial supers to the top).
	partial []int
	// retired lists fully-freed super-chunk indexes whose slab windows
	// the next carve recycles, keeping steady-state Alloc/Free
	// allocation-free. Index values are pure bookkeeping — DRAM addresses
	// come from chunk numbers — so reuse does not change simulated
	// behavior.
	retired []int
}

// ML2 manages the per-class free lists. It draws whole 4KB chunks from ML1
// to carve new super-chunks and returns fully-empty super-chunks' chunks to
// ML1 (Section IV-B).
type ML2 struct {
	classes []SizeClass
	lists   []classList // per class
	ml1     *ML1

	// UsedBytes tracks live compressed bytes for capacity accounting.
	UsedBytes int64
	// HeldChunks counts 4KB chunks currently owned by ML2.
	HeldChunks int
}

// NewML2 builds an ML2 over the given ML1 pool. It panics on a class
// menu SubChunk cannot address: more than 256 classes, or a class whose N
// exceeds the width of a uint8 slot.
func NewML2(classes []SizeClass, ml1 *ML1) *ML2 {
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	if len(classes) > math.MaxUint8+1 {
		panic(fmt.Sprintf("freelist: %d size classes, SubChunk.Class holds %d", len(classes), math.MaxUint8+1))
	}
	for i, c := range classes {
		if c.N > math.MaxUint8 {
			panic(fmt.Sprintf("freelist: class %d has N=%d sub-chunks, SubChunk.Slot holds %d", i, c.N, math.MaxUint8))
		}
	}
	return &ML2{classes: classes, lists: make([]classList, len(classes)), ml1: ml1}
}

// ClassFor returns the smallest class whose sub-chunks hold size bytes;
// ok=false when size exceeds the largest class (the page should stay
// uncompressed / in ML1).
func (m *ML2) ClassFor(size int) (int, bool) {
	for i, c := range m.classes {
		if c.SubSize >= size {
			return i, true
		}
	}
	return 0, false
}

// Classes exposes the class table.
func (m *ML2) Classes() []SizeClass { return m.classes }

// Alloc places a compressed page of size bytes, growing the class's list
// from ML1 if needed. ok=false when size doesn't fit any class or ML1 has
// no chunks to donate.
func (m *ML2) Alloc(size int) (SubChunk, bool) {
	ci, ok := m.ClassFor(size)
	if !ok {
		return SubChunk{}, false
	}
	cl, l := m.classes[ci], &m.lists[ci]
	if len(l.partial) == 0 {
		// Carve a new super-chunk from ML1. The pops commit only on
		// success: if ML1 runs dry mid-carve the popped chunks go back in
		// pop order (preserving the historical LIFO reshuffle on failure).
		var tmp [8]uint32
		buf := tmp[:0]
		if cl.M > len(tmp) {
			buf = make([]uint32, 0, cl.M)
		}
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
		var si int
		if nr := len(l.retired); nr > 0 {
			// Recycle a fully-freed super-chunk's slab windows instead of
			// growing the slabs.
			si = l.retired[nr-1]
			l.retired = l.retired[:nr-1]
			copy(l.chunks[si*cl.M:], buf)
		} else {
			si = len(l.supers)
			l.supers = append(l.supers, superChunk{})
			l.chunks = append(l.chunks, buf...)
			l.slots = append(l.slots, make([]uint8, cl.N)...)
		}
		// Slot 0 on top, then 1, ... (the stack a push of N-1 down to 0
		// leaves).
		stack := l.slots[si*cl.N:][:cl.N]
		for i := range stack {
			stack[i] = uint8(cl.N - 1 - i)
		}
		l.supers[si] = superChunk{free: cl.N, live: true}
		l.partial = append(l.partial, si)
		m.HeldChunks += cl.M
	}
	si := l.partial[len(l.partial)-1]
	sc := &l.supers[si]
	sc.free--
	slot := l.slots[si*cl.N+sc.free]
	sc.used++
	if sc.free == 0 {
		l.partial = l.partial[:len(l.partial)-1]
	}
	m.UsedBytes += int64(size)
	if check.Enabled {
		check.Invariant("freelist: super-chunk accounting after Alloc",
			func() error { return m.auditSuper(ci, si) })
	}
	return SubChunk{Super: uint32(si), Class: uint8(ci), Slot: slot}, true
}

// Free releases a sub-chunk previously returned by Alloc; size must be the
// size passed to Alloc (for byte accounting). When the super-chunk becomes
// empty its chunks go back to ML1.
func (m *ML2) Free(sc SubChunk, size int) error {
	ci, si := int(sc.Class), int(sc.Super)
	if ci >= len(m.classes) {
		return fmt.Errorf("freelist: bad class %d", ci)
	}
	cl, l := m.classes[ci], &m.lists[ci]
	sup := &l.supers[si]
	if sup.used <= 0 {
		return fmt.Errorf("freelist: double free in super %d", si)
	}
	wasFull := sup.free == 0
	l.slots[si*cl.N+sup.free] = sc.Slot
	sup.free++
	sup.used--
	m.UsedBytes -= int64(size)
	if sup.used == 0 {
		// Fully free: return the chunks to ML1 and retire the super-chunk.
		for _, c := range l.chunks[si*cl.M:][:cl.M] {
			m.ml1.Push(c)
		}
		m.HeldChunks -= cl.M
		*sup = superChunk{}
		l.retired = append(l.retired, si)
		// Remove from partial list if present.
		for i, p := range l.partial {
			if p == si {
				l.partial = append(l.partial[:i], l.partial[i+1:]...)
				break
			}
		}
		if check.Enabled {
			check.Invariant("freelist: super-chunk accounting after retire",
				func() error { return m.auditSuper(ci, si) })
		}
		return nil
	}
	if wasFull {
		// Transitioned to having a free slot: track at the top (paper's
		// policy keeps emptier supers toward the bottom).
		l.partial = append(l.partial, si)
	}
	if check.Enabled {
		check.Invariant("freelist: super-chunk accounting after Free",
			func() error { return m.auditSuper(ci, si) })
	}
	return nil
}

// superChunks returns the chunk numbers of sub-chunk sc's super-chunk.
func (m *ML2) superChunks(sc SubChunk) []uint32 {
	m1 := m.classes[sc.Class].M
	return m.lists[sc.Class].chunks[int(sc.Super)*m1:][:m1]
}

// Address returns the DRAM byte address of a sub-chunk, for the simulator's
// DRAM accesses: chunkNumber*4KB + slot*subSize, within the super-chunk's
// first covering chunk. Sub-chunks may straddle chunk boundaries; the
// simulator issues per-64B reads so straddling is handled by address math.
func (m *ML2) Address(sc SubChunk) uint64 {
	off := int(sc.Slot) * m.classes[sc.Class].SubSize
	return uint64(m.superChunks(sc)[off/ChunkSize])*ChunkSize + uint64(off%ChunkSize)
}

// BlockAddresses returns the DRAM addresses of the 64B blocks holding size
// bytes of this sub-chunk, following the super-chunk's chunk chain across
// 4KB boundaries (the chunks of a super-chunk need not be contiguous).
func (m *ML2) BlockAddresses(sc SubChunk, size int) []uint64 {
	return m.AppendBlockAddresses(nil, sc, size)
}

// AppendBlockAddresses is BlockAddresses appending into out[:0], so a
// reused scratch buffer keeps the MC's serve/evict paths allocation-free.
func (m *ML2) AppendBlockAddresses(out []uint64, sc SubChunk, size int) []uint64 {
	chunks := m.superChunks(sc)
	off := int(sc.Slot) * m.classes[sc.Class].SubSize
	out = out[:0]
	for b := off / config.BlockSize * config.BlockSize; b < off+size; b += config.BlockSize {
		ci := b / ChunkSize
		if ci >= len(chunks) {
			break
		}
		out = append(out, uint64(chunks[ci])*ChunkSize+uint64(b%ChunkSize))
	}
	return out
}
