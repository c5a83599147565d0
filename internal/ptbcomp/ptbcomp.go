// Package ptbcomp implements TMCC's hardware compression of page table
// blocks (Section V-A2/4/5, Figure 7): when all eight PTEs in a 64B PTB
// share identical status bits, the status bits are stored once, the leading
// identical PPN bits (determined by how much physical memory the OS has)
// are truncated, and the reclaimed space holds truncated CTEs — one per
// PTE — so a page walk prefetches the compression translation needed by its
// own next access. Decompression is ~1 cycle: pure wiring/concatenation.
package ptbcomp

import (
	"fmt"
	"math/bits"

	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/pagetable"
)

// Geometry of the encoding.
const (
	ptbBits    = 512 // a PTB is 64 bytes
	statusBits = 24  // stored once for all 8 entries
)

// Config fixes the bit widths (Section V-A5).
type Config struct {
	// OSPPNBits is the significant PPN width: log2 of the OS physical page
	// count (smaller machines have more leading identical PPN bits to
	// truncate).
	OSPPNBits int
	// CTEBits is the truncated-CTE width: log2(DRAM-per-MC / 4KB); 28 for
	// the paper's 1TB-per-MC assumption.
	CTEBits int
}

// NewConfig derives widths from installed sizes in bytes.
func NewConfig(osMemBytes, dramPerMCBytes uint64) Config {
	return Config{
		OSPPNBits: log2ceil(osMemBytes / config.PageSize),
		CTEBits:   log2ceil(dramPerMCBytes / config.PageSize),
	}
}

func log2ceil(v uint64) int {
	if v <= 1 {
		return 1
	}
	return 64 - bits.LeadingZeros64(v-1)
}

// MaxEmbeddable returns how many truncated CTEs fit alongside the eight
// truncated PPNs and the shared status bits. The paper's examples: 8 CTEs
// with 1TB per MC and 4TB OS memory, 7 at 4TB DRAM, 6 at 16TB DRAM.
func (c Config) MaxEmbeddable() int {
	free := ptbBits - statusBits - config.PTEsPerPTB*c.OSPPNBits
	n := free / (c.CTEBits + 1) // +1 for each slot's valid bit
	if n > 8 {
		n = 8
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Compressible reports whether the hardware can compress this PTB: all
// eight PTEs must carry identical status bits (Figure 7's condition) and
// every PPN must fit the truncated width.
func (c Config) Compressible(ptes *[8]uint64) bool {
	s0 := pagetable.StatusBits(ptes[0])
	for i := 1; i < 8; i++ {
		if pagetable.StatusBits(ptes[i]) != s0 {
			return false
		}
	}
	for _, pte := range ptes {
		if pagetable.PPN(pte)>>uint(c.OSPPNBits) != 0 {
			return false
		}
	}
	return true
}

// Slots are the embedded-CTE slots of a compressed PTB: slot i holds the
// truncated CTE of the page PTE i points to, and HasCTE marks slots that
// have been filled (lazily, Section V-A3). Embed is the only writer.
type Slots struct {
	CTEs   [8]uint32
	HasCTE [8]bool
}

// Compressed is the in-cache representation of a compressed PTB: the
// software-visible PTEs are recoverable by concatenation, and up to
// MaxEmbeddable truncated CTEs ride along in its Slots.
type Compressed struct {
	Status uint32
	PPNs   [8]uint64
	Slots
}

// Compress encodes a compressible PTB; ok=false if the block cannot be
// compressed (the caller stores it uncompressed and loses the embedding).
func (c Config) Compress(ptes *[8]uint64) (*Compressed, bool) {
	if !c.Compressible(ptes) {
		return nil, false
	}
	out := &Compressed{Status: pagetable.StatusBits(ptes[0])}
	for i, pte := range ptes {
		out.PPNs[i] = pagetable.PPN(pte)
	}
	return out, true
}

// Embed stores entry's truncated CTE into slot i, if the geometry allows a
// CTE for that slot.
func (c Config) Embed(s *Slots, i int, e cte.Entry) bool {
	if i >= c.MaxEmbeddable() {
		return false
	}
	s.CTEs[i] = e.Truncated(c.CTEBits)
	s.HasCTE[i] = true
	return true
}

// Decompress reconstructs the software-visible PTEs (~1 cycle in hardware:
// wiring that concatenates the shared status bits with each PPN).
func (cp *Compressed) Decompress() [8]uint64 {
	var out [8]uint64
	lo := uint64(cp.Status & 0xfff)
	hi := uint64(cp.Status>>12) << 52
	for i, ppn := range cp.PPNs {
		out[i] = pagetable.MakePTE(ppn, lo|hi)
	}
	return out
}

// Pack serializes to the 64B hardware layout for tests proving the
// encoding actually fits: status(24) | 8 x PPN(OSPPNBits) | N x CTE(CTEBits)
// | N valid bits, MSB-first.
func (c Config) Pack(cp *Compressed) ([]byte, error) {
	n := c.MaxEmbeddable()
	need := statusBits + config.PTEsPerPTB*c.OSPPNBits + n*c.CTEBits + n
	if need > ptbBits {
		return nil, fmt.Errorf("ptbcomp: layout needs %d bits > %d", need, ptbBits)
	}
	w := newBitPacker()
	w.put(uint64(cp.Status), statusBits)
	for _, ppn := range cp.PPNs {
		if ppn>>uint(c.OSPPNBits) != 0 {
			return nil, fmt.Errorf("ptbcomp: ppn %#x exceeds %d bits", ppn, c.OSPPNBits)
		}
		w.put(ppn, c.OSPPNBits)
	}
	for i := 0; i < n; i++ {
		w.put(uint64(cp.CTEs[i]), c.CTEBits)
	}
	for i := 0; i < n; i++ {
		b := uint64(0)
		if cp.HasCTE[i] {
			b = 1
		}
		w.put(b, 1)
	}
	return w.finish(), nil
}

// Unpack inverts Pack.
func (c Config) Unpack(raw []byte) (*Compressed, error) {
	if len(raw) != 64 {
		return nil, fmt.Errorf("ptbcomp: raw PTB must be 64B")
	}
	r := &bitUnpacker{buf: raw}
	cp := &Compressed{}
	cp.Status = uint32(r.get(statusBits))
	for i := range cp.PPNs {
		cp.PPNs[i] = r.get(c.OSPPNBits)
	}
	n := c.MaxEmbeddable()
	for i := 0; i < n; i++ {
		cp.CTEs[i] = uint32(r.get(c.CTEBits))
	}
	for i := 0; i < n; i++ {
		cp.HasCTE[i] = r.get(1) == 1
	}
	if r.err != nil {
		return nil, r.err
	}
	return cp, nil
}

// bitPacker writes fields MSB-first. Whole bytes leave the accumulator
// as soon as they are complete, so fewer than 8 bits stay pending between
// puts and a put of up to 56 bits moves in one step.
type bitPacker struct {
	buf  []byte
	acc  uint64 // pending bits, right-aligned
	nacc uint
}

func newBitPacker() *bitPacker { return &bitPacker{} }

// put writes the low n bits of v.
func (w *bitPacker) put(v uint64, n int) {
	for n > 0 {
		k := min(n, 56)
		n -= k
		w.acc = w.acc<<k | v>>n&(1<<k-1)
		w.nacc += uint(k)
		for w.nacc >= 8 {
			w.nacc -= 8
			w.buf = append(w.buf, byte(w.acc>>w.nacc))
		}
	}
}

func (w *bitPacker) finish() []byte {
	out := make([]byte, 64)
	n := copy(out, w.buf)
	if w.nacc > 0 {
		out[n] = byte(w.acc << (8 - w.nacc))
	}
	return out
}

// bitUnpacker reads fields MSB-first, refilling its accumulator a byte at
// a time only as far as the field needs.
type bitUnpacker struct {
	buf  []byte // bytes not yet in acc
	acc  uint64 // unread bits, right-aligned
	nacc uint
	err  error
}

func (r *bitUnpacker) get(n int) uint64 {
	var v uint64
	for n > 0 {
		k := uint(min(n, 56))
		for r.nacc < k && len(r.buf) > 0 {
			r.acc = r.acc<<8 | uint64(r.buf[0])
			r.buf = r.buf[1:]
			r.nacc += 8
		}
		if r.nacc < k {
			r.err = fmt.Errorf("ptbcomp: unpack past end")
			return 0
		}
		r.nacc -= k
		v = v<<k | r.acc>>r.nacc&(1<<k-1)
		n -= int(k)
	}
	return v
}
