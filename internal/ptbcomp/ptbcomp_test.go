package ptbcomp

import (
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
