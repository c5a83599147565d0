package pagetable

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func seqAlloc() func() uint64 {
	var n uint64 = 1 << 20 // table pages live high, away from test data PPNs
	return func() uint64 {
		n++
		return n
	}
}

func TestMapWalkRoundTrip(t *testing.T) {
	pt := New(seqAlloc(), false)
	rng := rand.New(rand.NewSource(1))
	mapped := map[uint64]uint64{}
	for i := 0; i < 2000; i++ {
		vpn := uint64(rng.Intn(1 << 24))
		ppn := uint64(rng.Intn(1 << 20))
		pt.Map(vpn, ppn, FlagPresent|FlagWrite)
		mapped[vpn] = ppn
	}
	for vpn, want := range mapped {
		steps, ppn, ok := pt.Walk(vpn)
		if !ok {
			t.Fatalf("vpn %#x unmapped", vpn)
		}
		if ppn != want {
			t.Fatalf("vpn %#x -> %#x, want %#x", vpn, ppn, want)
		}
		if len(steps) != Levels {
			t.Fatalf("walk has %d steps, want %d", len(steps), Levels)
		}
		if steps[Levels-1].NextPPN != want {
			t.Fatalf("leaf step NextPPN %#x != %#x", steps[Levels-1].NextPPN, want)
		}
		for _, s := range steps {
			if s.PTBAddr%PTBSize != 0 {
				t.Fatalf("PTB address %#x not 64B aligned", s.PTBAddr)
			}
		}
	}
}

func TestWalkUnmapped(t *testing.T) {
	pt := New(seqAlloc(), false)
	pt.Map(100, 7, FlagPresent)
	if _, _, ok := pt.Walk(101); ok {
		t.Error("unmapped vpn resolved")
	}
	if _, _, ok := pt.Walk(100 + 1<<30); ok {
		t.Error("distant unmapped vpn resolved")
	}
}

func TestPTEFieldHelpers(t *testing.T) {
	pte := MakePTE(0xabcde, FlagPresent|FlagWrite|FlagNX)
	if PPN(pte) != 0xabcde {
		t.Errorf("PPN = %#x", PPN(pte))
	}
	st := StatusBits(pte)
	if st&0x3 != 0x3 {
		t.Errorf("low status bits lost: %#x", st)
	}
	if st>>12&0x800 == 0 {
		t.Errorf("NX bit lost: %#x", st)
	}
}

func TestQuickPTERoundTrip(t *testing.T) {
	f := func(ppn uint64, flags uint64) bool {
		ppn &= 1<<40 - 1
		pte := MakePTE(ppn, flags)
		return PPN(pte) == ppn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHugePages(t *testing.T) {
	pt := New(seqAlloc(), true)
	pt.Map(0, 512, FlagPresent|FlagWrite)      // first 2MB frame
	pt.Map(512*7, 1024, FlagPresent|FlagWrite) // another
	steps, ppn, ok := pt.Walk(5)               // inside first frame
	if !ok || ppn != 512+5 {
		t.Fatalf("huge walk -> %#x ok=%v, want %#x", ppn, ok, 512+5)
	}
	if len(steps) != 3 {
		t.Fatalf("huge walk has %d steps, want 3", len(steps))
	}
	if _, ppn, ok = pt.Walk(512*7 + 100); !ok || ppn != 1024+100 {
		t.Fatalf("huge walk 2 -> %#x ok=%v", ppn, ok)
	}
}

func TestTablePagesGrowth(t *testing.T) {
	pt := New(seqAlloc(), false)
	if pt.TablePages() != 1 {
		t.Fatalf("fresh table pages = %d", pt.TablePages())
	}
	// 512 contiguous pages fit one L1 table page: 1 root + 1 L3 + 1 L2 + 1 L1.
	for vpn := uint64(0); vpn < 512; vpn++ {
		pt.Map(vpn, vpn, FlagPresent)
	}
	if pt.TablePages() != 4 {
		t.Errorf("table pages = %d, want 4", pt.TablePages())
	}
	// The next 512 pages add exactly one more L1 table page.
	for vpn := uint64(512); vpn < 1024; vpn++ {
		pt.Map(vpn, vpn, FlagPresent)
	}
	if pt.TablePages() != 5 {
		t.Errorf("table pages = %d, want 5", pt.TablePages())
	}
}

func TestPTBsVisitsPresent(t *testing.T) {
	pt := New(seqAlloc(), false)
	for vpn := uint64(0); vpn < 100; vpn++ {
		pt.Map(vpn, vpn+5000, FlagPresent|FlagWrite)
	}
	var l1, l2, l4 int
	pt.PTBs(func(b PTB) {
		switch b.Level {
		case 1:
			l1++
		case 2:
			l2++
		case 4:
			l4++
		}
	})
	// 100 pages -> 13 L1 PTBs, 1 PTB at each upper level.
	if l1 != 13 || l2 != 1 || l4 != 1 {
		t.Errorf("PTB counts l1=%d l2=%d l4=%d", l1, l2, l4)
	}
}

// TestPTBAtMatchesPTBs pins the slot accessor: every present PTB the
// table reports resolves through PTBSlot to a slot whose PTBAt holds its
// PTEs, and distinct PTBs get distinct slots below PTBSlots.
func TestPTBAtMatchesPTBs(t *testing.T) {
	pt := New(seqAlloc(), false)
	for vpn := uint64(0); vpn < 3000; vpn += 3 {
		pt.Map(vpn<<9|vpn&511, vpn+5000, FlagPresent|FlagWrite)
	}
	seen := map[int]bool{}
	pt.PTBs(func(b PTB) {
		slot, ok := pt.PTBSlot(b.Addr)
		if !ok || slot < 0 || slot >= pt.PTBSlots() {
			t.Fatalf("PTBSlot(%#x) = %d, %v; want a slot below %d", b.Addr, slot, ok, pt.PTBSlots())
		}
		if seen[slot] {
			t.Fatalf("PTB %#x shares slot %d", b.Addr, slot)
		}
		seen[slot] = true
		if got := *pt.PTBAt(slot); got != b.PTEs {
			t.Errorf("PTBAt(%d) = %x, PTB %#x holds %x", slot, got, b.Addr, b.PTEs)
		}
	})
	if _, ok := pt.PTBSlot(5000 << PageShift); ok {
		t.Error("a data page resolved to a PTB slot")
	}
}

func TestBuildAddressSpace(t *testing.T) {
	as := BuildAddressSpace(20000, 80000, DefaultOSConfig(7))
	lo, hi := as.VPNRange()
	if hi-lo != 20000 {
		t.Fatalf("vpn range %d", hi-lo)
	}
	// Every mapped page walks; PPNs stay within the OS pool and are unique.
	seen := map[uint64]bool{}
	for vpn := lo; vpn < hi; vpn += 37 {
		ppn, ok := as.Table.Lookup(vpn)
		if !ok {
			t.Fatalf("vpn %#x unmapped", vpn)
		}
		if ppn >= as.OSPages {
			t.Fatalf("ppn %#x out of pool", ppn)
		}
		if seen[ppn] {
			t.Fatalf("ppn %#x allocated twice", ppn)
		}
		seen[ppn] = true
	}
}

// TestBuiltTableIsFrozen pins that BuildAddressSpace returns a read-only
// table: runs share built tables, so a late Map must fail loudly.
func TestBuiltTableIsFrozen(t *testing.T) {
	as := BuildAddressSpace(1000, 4000, DefaultOSConfig(3))
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "pagetable: ") {
			t.Fatalf("Map on a built table recovered %q, want a pagetable: panic", msg)
		}
	}()
	_, hi := as.VPNRange()
	as.Table.Map(hi, 0, FlagPresent)
}

func TestBuildAddressSpaceHuge(t *testing.T) {
	cfg := DefaultOSConfig(9)
	cfg.HugePages = true
	as := BuildAddressSpace(4096, 1<<20, cfg)
	lo, _ := as.VPNRange()
	if ppn, ok := as.Table.Lookup(lo + 3); !ok || ppn%512 != 3 {
		t.Fatalf("huge lookup got %#x ok=%v", ppn, ok)
	}
}

// Figure 6: the modeled OS must produce overwhelmingly status-homogeneous
// PTBs: ~99.94% at L1 and ~99.3% at L2.
func TestFig6StatusHomogeneity(t *testing.T) {
	as := BuildAddressSpace(200000, 900000, DefaultOSConfig(11))
	same := map[int]int{}
	total := map[int]int{}
	as.Table.PTBs(func(b PTB) {
		total[b.Level]++
		identical := true
		s0 := StatusBits(b.PTEs[0])
		for _, pte := range b.PTEs[1:] {
			if StatusBits(pte) != s0 {
				identical = false
				break
			}
		}
		if identical {
			same[b.Level]++
		}
	})
	l1 := float64(same[1]) / float64(total[1])
	l2 := float64(same[2]) / float64(total[2])
	// At this test scale there are only ~50 L2 PTBs, so the binomial noise
	// is coarse; the full-scale Figure 6 experiment uses ~1M pages and
	// lands much closer to the paper's 99.3%.
	if l1 < 0.995 || l1 > 1.0 {
		t.Errorf("L1 homogeneous fraction = %.4f, want ~0.9994", l1)
	}
	if l2 < 0.93 {
		t.Errorf("L2 homogeneous fraction = %.4f, want ~0.993", l2)
	}
	t.Logf("L1 %.4f (paper 0.9994), L2 %.4f (paper 0.993), PTBs l1=%d l2=%d",
		l1, l2, total[1], total[2])
}
