package pagetable

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refBuildAddressSpace is BuildAddressSpace as it was before the frame
// bitset and the dense table filled while mapping: a []bool pool probed
// one page at a time with a modulo per probe, and the dense table read
// back afterwards with one radix Lookup per vpn.
func refBuildAddressSpace(dataPages, osPages uint64, cfg OSConfig) (*Table, []uint64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Regions <= 0 {
		cfg.Regions = 1
	}
	used := make([]bool, osPages)
	next := uint64(rng.Int63n(int64(osPages / 4)))
	allocPPN := func() uint64 {
		if rng.Float64() < cfg.Fragmentation {
			next = uint64(rng.Int63n(int64(osPages)))
		}
		for {
			p := next % osPages
			next++
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	nextHuge := uint64(0)
	allocHugePPN := func() uint64 {
		for {
			p := nextHuge % osPages
			nextHuge += EntriesPer
			if !used[p] {
				for i := uint64(0); i < EntriesPer; i++ {
					used[p+i] = true
				}
				return p
			}
		}
	}
	t := New(allocPPN, cfg.HugePages)
	type region struct {
		pages uint64
		flags uint64
	}
	regions := make([]region, cfg.Regions)
	remaining := dataPages
	for i := range regions {
		share := remaining / uint64(cfg.Regions-i)
		if i == len(regions)-1 {
			share = remaining
		}
		regions[i] = region{pages: share, flags: regionFlagChoices[rng.Intn(len(regionFlagChoices))]}
		remaining -= share
	}
	vbase := uint64(0x10000)
	if cfg.HugePages {
		vbase = vbase / EntriesPer * EntriesPer
	}
	vpn := vbase
	for _, r := range regions {
		if cfg.HugePages {
			for mapped := uint64(0); mapped < r.pages; mapped += EntriesPer {
				t.Map(vpn, allocHugePPN(), r.flags)
				vpn += EntriesPer
			}
			continue
		}
		for p := uint64(0); p < r.pages; p++ {
			flags := r.flags
			if rng.Float64() < cfg.L1FlagNoise {
				flags = oddFlagChoices[rng.Intn(len(oddFlagChoices))]
			}
			t.Map(vpn, allocPPN(), flags)
			vpn++
		}
	}
	if !cfg.HugePages && cfg.L2FlagNoise > 0 {
		t.perturbLevel(2, cfg.L2FlagNoise, rng)
	}
	t.alloc = nil
	n := dataPages
	if cfg.HugePages {
		n = (n + EntriesPer - 1) / EntriesPer * EntriesPer
	}
	dense := make([]uint64, n)
	for i := range dense {
		dense[i], _ = t.Lookup(vbase + uint64(i))
	}
	return t, dense
}

// TestBuildMatchesReference requires BuildAddressSpace to hand out the
// same frames as the reference allocator: the same table pages in the
// same creation order, the same PTE in every slot, and the same dense
// translation. The shapes cover a native build, huge pages, a pool not a
// multiple of 64 pages, and a pool barely larger than the footprint, so
// the allocator's scan wraps past the pool's end and skips long taken
// runs.
func TestBuildMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 42} {
		huge := DefaultOSConfig(seed)
		huge.HugePages = true
		tight := DefaultOSConfig(seed)
		tight.Fragmentation = 0.2
		for _, tc := range []struct {
			name              string
			dataPages, osPool uint64
			cfg               OSConfig
		}{
			{"native", 20000, 80000, DefaultOSConfig(seed)},
			{"huge", 20000 + 77, 1 << 18, huge},
			{"odd-pool", 5000, 20011, DefaultOSConfig(seed)},
			{"small-pool", 8000, 8000 + 8000/64 + 24, tight},
		} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				want, wantDense := refBuildAddressSpace(tc.dataPages, tc.osPool, tc.cfg)
				as := BuildAddressSpace(tc.dataPages, tc.osPool, tc.cfg)
				got := as.Table
				if got.TablePages() != want.TablePages() {
					t.Fatalf("%d table pages, reference %d", got.TablePages(), want.TablePages())
				}
				for i := range want.nodes {
					if got.nodes[i].ppn != want.nodes[i].ppn {
						t.Fatalf("table page %d at PPN %#x, reference %#x", i, got.nodes[i].ppn, want.nodes[i].ppn)
					}
				}
				for slot := 0; slot < want.PTBSlots(); slot++ {
					if g, w := *got.PTBAt(slot), *want.PTBAt(slot); g != w {
						t.Fatalf("slot %d holds %x, reference %x", slot, g, w)
					}
				}
				if len(as.PPNs) != len(wantDense) {
					t.Fatalf("%d dense entries, reference %d", len(as.PPNs), len(wantDense))
				}
				for i := range wantDense {
					if uint64(as.PPNs[i]) != wantDense[i] {
						t.Fatalf("vpn %#x -> %#x, reference %#x", as.VBase+uint64(i), as.PPNs[i], wantDense[i])
					}
				}
			})
		}
	}
}

// TestBuildRefusesWidePool: a pool with PPNs past 32 bits cannot fill the
// uint32 dense table, so the build panics before allocating anything
// pool-sized; a pool of exactly math.MaxUint32 pages would still fit.
func TestBuildRefusesWidePool(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "pagetable: ") {
			t.Fatalf("BuildAddressSpace recovered %q, want a pagetable: panic", msg)
		}
	}()
	BuildAddressSpace(1, math.MaxUint32+1, DefaultOSConfig(1))
}

// TestHugeBuildRefusesFullPool: a huge-page build whose pool has no free
// 2MB frame left, or whose next free start's frame runs past the pool,
// panics with a pagetable: message instead of spinning on the taken
// starts or indexing past the pool. Each build runs under a deadline, so
// a spinning allocator fails the test instead of hanging it.
func TestHugeBuildRefusesFullPool(t *testing.T) {
	huge := DefaultOSConfig(42)
	huge.HugePages = true
	for _, c := range []struct {
		dataPages, osPages uint64
		want               string
	}{
		{1, 4, "no free 2MB frame left in a pool of 4 pages"},         // the root table takes the only start
		{600, 1024, "no free 2MB frame left in a pool of 1024 pages"}, // table pages take both starts
		{1000, 4000, "the 2MB frame at page 3584 runs past a pool of 4000 pages"},
	} {
		done := make(chan string, 1)
		go func() {
			defer func() {
				msg, _ := recover().(string)
				done <- msg
			}()
			BuildAddressSpace(c.dataPages, c.osPages, huge)
		}()
		select {
		case msg := <-done:
			if msg != "pagetable: "+c.want {
				t.Errorf("huge build of %d pages in %d: recovered %q, want %q", c.dataPages, c.osPages, msg, "pagetable: "+c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("huge build of %d pages in %d still running after 10s", c.dataPages, c.osPages)
		}
	}
}
