package ptbcomp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tmcc/internal/cte"
	"tmcc/internal/pagetable"
)

func cfg1TB() Config {
	// Paper's headline configuration: 1TB DRAM per MC, 4X OS expansion.
	return NewConfig(4<<40, 1<<40)
}

func TestMaxEmbeddableMatchesPaper(t *testing.T) {
	cases := []struct {
		dramPerMC uint64
		want      int
	}{
		{1 << 40, 8},  // 1TB -> all 8 PTEs get CTEs
		{4 << 40, 7},  // 4TB -> 7
		{16 << 40, 6}, // 16TB -> 6
	}
	for _, c := range cases {
		cfg := NewConfig(4*c.dramPerMC, c.dramPerMC)
		if got := cfg.MaxEmbeddable(); got != c.want {
			t.Errorf("dram %d TB: embeddable = %d, want %d",
				c.dramPerMC>>40, got, c.want)
		}
	}
}

func TestCTEWidth(t *testing.T) {
	cfg := cfg1TB()
	if cfg.CTEBits != 28 {
		t.Errorf("CTE bits = %d, want 28 (log2(1TB/4KB))", cfg.CTEBits)
	}
	if cfg.OSPPNBits != 30 {
		t.Errorf("OS PPN bits = %d, want 30 (log2(4TB/4KB))", cfg.OSPPNBits)
	}
}

func homogeneousPTB(rng *rand.Rand, flags uint64) [8]uint64 {
	var ptes [8]uint64
	for i := range ptes {
		ptes[i] = pagetable.MakePTE(uint64(rng.Intn(1<<30)), flags)
	}
	return ptes
}

func TestCompressibleDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := cfg1TB()
	ptes := homogeneousPTB(rng, pagetable.FlagPresent|pagetable.FlagWrite|pagetable.FlagNX)
	if !cfg.Compressible(&ptes) {
		t.Error("homogeneous PTB not compressible")
	}
	ptes[3] |= pagetable.FlagPCD
	if cfg.Compressible(&ptes) {
		t.Error("heterogeneous PTB reported compressible")
	}
	// A PPN exceeding the truncated width blocks compression.
	wide := homogeneousPTB(rng, pagetable.FlagPresent)
	wide[0] = pagetable.MakePTE(1<<35, pagetable.FlagPresent)
	if cfg.Compressible(&wide) {
		t.Error("over-wide PPN reported compressible")
	}
}

func TestCompressDecompressIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := cfg1TB()
	for i := 0; i < 100; i++ {
		flags := uint64(pagetable.FlagPresent | pagetable.FlagUser | pagetable.FlagNX)
		ptes := homogeneousPTB(rng, flags)
		cp, ok := cfg.Compress(&ptes)
		if !ok {
			t.Fatal("compress failed")
		}
		got := cp.Decompress()
		if got != ptes {
			t.Fatalf("decompress mismatch:\n got %x\nwant %x", got, ptes)
		}
	}
}

func TestEmbedAndPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := cfg1TB()
	ptes := homogeneousPTB(rng, pagetable.FlagPresent|pagetable.FlagWrite)
	cp, _ := cfg.Compress(&ptes)
	for i := 0; i < cfg.MaxEmbeddable(); i++ {
		e := cte.Entry{DRAMPage: uint32(rng.Intn(1 << 28))}
		if !cfg.Embed(&cp.Slots, i, e) {
			t.Fatalf("embed slot %d failed", i)
		}
	}
	raw, err := cfg.Pack(cp)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	if len(raw) != 64 {
		t.Fatalf("packed PTB is %dB", len(raw))
	}
	back, err := cfg.Unpack(raw)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if back.Status != cp.Status || back.PPNs != cp.PPNs || back.CTEs != cp.CTEs || back.HasCTE != cp.HasCTE {
		t.Fatalf("unpack mismatch:\n got %+v\nwant %+v", back, cp)
	}
	if err := cfg.Fit(&ptes, &cp.Slots); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	ptes[2] |= pagetable.FlagPCD
	if err := cfg.Fit(&ptes, &cp.Slots); err == nil {
		t.Fatal("Fit accepted a PTB with mixed status bits")
	}
}

func TestEmbedBeyondCapacity(t *testing.T) {
	cfg := NewConfig(64<<40, 16<<40) // 6 embeddable
	var ptes [8]uint64
	for i := range ptes {
		ptes[i] = pagetable.MakePTE(uint64(i), pagetable.FlagPresent)
	}
	cp, _ := cfg.Compress(&ptes)
	if cfg.Embed(&cp.Slots, 6, cte.Entry{}) {
		t.Error("embedded past capacity")
	}
	if !cfg.Embed(&cp.Slots, 5, cte.Entry{}) {
		t.Error("slot 5 should fit")
	}
}

// Property: pack/unpack is the identity for any compressible PTB with any
// set of embedded CTEs.
func TestQuickPackUnpack(t *testing.T) {
	cfg := cfg1TB()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ptes := homogeneousPTB(rng, pagetable.FlagPresent|pagetable.FlagAccessed)
		cp, ok := cfg.Compress(&ptes)
		if !ok {
			return false
		}
		for i := 0; i < cfg.MaxEmbeddable(); i++ {
			if rng.Intn(2) == 0 {
				cfg.Embed(&cp.Slots, i, cte.Entry{DRAMPage: uint32(rng.Intn(1 << 28))})
			}
		}
		raw, err := cfg.Pack(cp)
		if err != nil {
			return false
		}
		back, err := cfg.Unpack(raw)
		if err != nil {
			return false
		}
		return back.Status == cp.Status && back.PPNs == cp.PPNs &&
			back.CTEs == cp.CTEs && back.HasCTE == cp.HasCTE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCTEEntryPackUnpack(t *testing.T) {
	f := func(page uint32, ml2, inc bool, pairs uint32) bool {
		e := cte.Entry{DRAMPage: page & 0x3fffffff, InML2: ml2, IsIncompressible: inc, PTBPairs: pairs}
		return cte.Unpack(e.Pack()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncatedVerification(t *testing.T) {
	e := cte.Entry{DRAMPage: 0x0ABCDEF1 & 0x0fffffff}
	tr := e.Truncated(28)
	if !e.MatchesTruncated(tr, 28) {
		t.Error("truncated CTE does not verify against itself")
	}
	if e.MatchesTruncated(tr+1, 28) {
		t.Error("stale truncated CTE verified")
	}
}

// bitPackerRef and bitUnpackerRef are the bit-at-a-time packer and
// unpacker the accumulator versions replaced, kept as their oracle.
type bitPackerRef struct {
	buf  []byte
	nbit uint
}

func (w *bitPackerRef) put(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		bit := byte(v>>uint(i)) & 1
		w.buf[len(w.buf)-1] |= bit << (7 - w.nbit%8)
		w.nbit++
	}
}

func (w *bitPackerRef) finish() []byte {
	out := make([]byte, 64)
	copy(out, w.buf)
	return out
}

type bitUnpackerRef struct {
	buf []byte
	pos uint
	err error
}

func (r *bitUnpackerRef) get(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		if int(r.pos) >= len(r.buf)*8 {
			r.err = errors.New("ptbcomp: unpack past end")
			return 0
		}
		bit := r.buf[r.pos/8] >> (7 - r.pos%8) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v
}

// TestBitPackerMatchesReference packs random field sequences (widths
// 1..64, values with bits above the width set, up to the 512-bit PTB)
// with both packers and requires the same 64 bytes, then reads the same
// widths back with both unpackers, one field past the end included, and
// requires the same values and the same past-end error.
func TestBitPackerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		var widths []int
		var vals []uint64
		w, ref := newBitPacker(), &bitPackerRef{}
		for total := 0; ; {
			n := 1 + rng.Intn(64)
			if total+n > ptbBits {
				break
			}
			v := rng.Uint64()
			w.put(v, n)
			ref.put(v, n)
			widths, vals = append(widths, n), append(vals, v)
			total += n
		}
		got, want := w.finish(), ref.finish()
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: packed %x, reference %x", iter, got, want)
		}
		r, rr := &bitUnpacker{buf: got}, &bitUnpackerRef{buf: want}
		for i, n := range append(widths, 64) {
			gv, wv := r.get(n), rr.get(n)
			if gv != wv || (r.err != nil) != (rr.err != nil) {
				t.Fatalf("iter %d: field %d (%d bits) read %#x err %v, reference %#x err %v",
					iter, i, n, gv, r.err, wv, rr.err)
			}
			if i < len(widths) && gv != vals[i]&(1<<n-1) {
				t.Fatalf("iter %d: field %d read %#x, packed %#x", iter, i, gv, vals[i])
			}
		}
	}
}
