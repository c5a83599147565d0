package dram

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"tmcc/internal/config"
)

func cfg() config.DRAM { return config.Default().DRAM }

func TestSingleReadLatency(t *testing.T) {
	c := New(cfg())
	done := c.Read(0, 0x1000)
	// A cold read: tRP+tRCD+tCL+tBL = 43.75 ns.
	want := 3*13750 + 2500
	if int(done) != want {
		t.Errorf("cold read latency = %d ps, want %d", done, want)
	}
}

func TestRowHitFaster(t *testing.T) {
	c := New(cfg())
	first := c.Read(0, 0x2000)
	second := c.Read(first, 0x2040) - first // same row, next block
	if second >= first {
		t.Errorf("row hit %d ps not faster than miss %d ps", second, first)
	}
	if c.Stats.RowHits != 1 {
		t.Errorf("row hits = %d, want 1", c.Stats.RowHits)
	}
}

func TestRowAccessCapForcesMiss(t *testing.T) {
	conf := cfg()
	conf.RowAccessCap = 4
	c := New(conf)
	now := config.Time(0)
	for i := 0; i < 6; i++ {
		now = c.Read(now, uint64(0x4000+i*64))
	}
	// 6 same-row accesses: 1 miss, then hits; the cap inserts a
	// re-arbitration bubble but keeps the row open (FR-FCFS-Capped limits
	// prioritization, it does not precharge an uncontended row).
	if c.Stats.RowMisses != 1 {
		t.Errorf("row misses = %d, want 1", c.Stats.RowMisses)
	}
	if c.Stats.RowHits != 5 {
		t.Errorf("row hits = %d, want 5", c.Stats.RowHits)
	}
}

func TestBusSerializesBursts(t *testing.T) {
	c := New(cfg())
	// Two concurrent reads to different banks still share the data bus.
	d1 := c.Read(0, 0x10000)
	d2 := c.Read(0, 0x38000)
	if d1 == d2 {
		t.Error("two bursts completed at the same instant on one bus")
	}
}

func TestQueueingUnderLoad(t *testing.T) {
	c := New(cfg())
	rng := rand.New(rand.NewSource(1))
	// Saturate: issue 1000 reads at time 0; average latency must greatly
	// exceed the unloaded latency.
	var last config.Time
	for i := 0; i < 1000; i++ {
		last = c.Read(0, uint64(rng.Intn(1<<28))&^63)
	}
	if avg := c.AvgReadLatency(); avg < 100*config.Nanosecond {
		t.Errorf("avg latency under saturation = %v ps, expected queueing", avg)
	}
	if last < 1000*config.Time(cfg().TBL) {
		t.Errorf("1000 bursts finished too fast: %d ps", last)
	}
}

func TestWriteModePenalty(t *testing.T) {
	// Read-after-write to the same open row pays the rank turnaround that
	// read-after-read does not.
	c1 := New(cfg())
	w := c1.Write(0, 0x5000)
	raw := c1.Read(w, 0x5040) - w

	c2 := New(cfg())
	r := c2.Read(0, 0x5000)
	rar := c2.Read(r, 0x5040) - r
	if raw <= rar {
		t.Errorf("read-after-write %d ps not slower than read-after-read %d ps", raw, rar)
	}
}

func TestInterleavingSpreadsChannels(t *testing.T) {
	conf := cfg()
	conf.MCs = 2
	conf.Channels = 2
	conf.MCInterleaveBytes = 512
	conf.ChannelInterleaveBytes = 256
	c := New(conf)
	seen := map[int]bool{}
	for addr := uint64(0); addr < 4096; addr += 256 {
		ch, _, _, _ := c.decode(addr)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Errorf("only %d/4 channels used under sub-page interleave", len(seen))
	}
	// Page-granularity MC interleave: one 4KB page stays within one MC.
	conf.MCInterleaveBytes = 4096
	c2 := New(conf)
	mcs := map[int]bool{}
	for addr := uint64(0); addr < 4096; addr += 256 {
		ch, _, _, _ := c2.decode(addr)
		mcs[ch/conf.Channels] = true
	}
	if len(mcs) != 1 {
		t.Errorf("4KB page crossed MCs under 4KB interleave")
	}
}

func TestBandwidthAccounting(t *testing.T) {
	c := New(cfg())
	var now config.Time
	for i := 0; i < 100; i++ {
		now = c.Read(now, uint64(i*64))
	}
	u := c.BusUtilization(now)
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %f out of range", u)
	}
	if c.PeakBandwidthGBs() < 25 || c.PeakBandwidthGBs() > 26 {
		t.Errorf("peak bandwidth = %f, want 25.6", c.PeakBandwidthGBs())
	}
}

func TestRefreshStallsAccess(t *testing.T) {
	conf := cfg()
	c := New(conf)
	// Hit rank 0's second refresh window head-on: its refresh starts at
	// phase + k*tREFI with phase = tRFC.
	inWindow := conf.TRFC + conf.TREFI + conf.TRFC/2
	// Find an address on rank 0.
	var addr uint64
	for a := uint64(0); ; a += 64 {
		if _, rk, _, _ := c.decode(a); rk == 0 {
			addr = a
			break
		}
	}
	done := c.Read(inWindow, addr)
	if c.Stats.RefreshStalls != 1 {
		t.Fatalf("refresh stalls = %d, want 1", c.Stats.RefreshStalls)
	}
	if done < conf.TRFC+conf.TREFI+conf.TRFC {
		t.Errorf("read completed at %d, inside the refresh window", done)
	}
	// Outside any window: no stall.
	c2 := New(conf)
	c2.Read(conf.TRFC+conf.TREFI/2, addr)
	if c2.Stats.RefreshStalls != 0 {
		t.Errorf("unexpected refresh stall")
	}
}

// refDecode is decode as it divided before the shift-and-mask divisors:
// the oracle TestDecodeMatchesDivision and FuzzDecodeMatchesReference
// compare decode with.
func refDecode(cfg config.DRAM, addr uint64) (ch, rk, bk int, row int64) {
	mc := 0
	if cfg.MCs > 1 {
		mc = int(addr/uint64(cfg.MCInterleaveBytes)) % cfg.MCs
	}
	chIdx := 0
	if cfg.Channels > 1 {
		chIdx = int(addr/uint64(cfg.ChannelInterleaveBytes)) % cfg.Channels
	}
	ch = mc*cfg.Channels + chIdx
	rowAddr := addr / uint64(cfg.RowBytes)
	banksTotal := uint64(cfg.RanksPerChan * cfg.BanksPerRank)
	b := (rowAddr ^ rowAddr>>7 ^ rowAddr>>13) % banksTotal
	rk = int(b) / cfg.BanksPerRank
	bk = int(b) % cfg.BanksPerRank
	row = int64(rowAddr / banksTotal)
	return
}

// matchDecode requires decode and refDecode to agree on addr, and the
// rank the address decodes to to carry the refresh phase access used to
// compute per access.
func matchDecode(t testing.TB, c *Controller, addr uint64) {
	t.Helper()
	ch, rk, bk, row := c.decode(addr)
	wch, wrk, wbk, wrow := refDecode(c.cfg, addr)
	if ch != wch || rk != wrk || bk != wbk || row != wrow {
		t.Fatalf("decode(%#x) = (ch %d, rank %d, bank %d, row %d), by division (%d, %d, %d, %d) at %+v",
			addr, ch, rk, bk, row, wch, wrk, wbk, wrow, c.cfg)
	}
	want := c.cfg.TREFI/config.Time(c.cfg.RanksPerChan)*config.Time(rk) + c.cfg.TRFC
	if got := c.chans[ch].ranks[rk].refPhase; got != want {
		t.Fatalf("rank %d refresh phase = %d ps, want %d", rk, got, want)
	}
}

// TestDecodeMatchesDivision compares decode with refDecode on seeded
// addresses below 2^40 and at edge addresses up to 2^64-1, at Table III's geometry
// (every divisor a power of two), at Section VIII's 2 MCs x 2 channels,
// and at shapes that take the divide: 6 KiB rows, 3 ranks x 12 banks, and
// 2 MCs x 3 channels.
func TestDecodeMatchesDivision(t *testing.T) {
	shapes := map[string]func(*config.DRAM){
		"tableIII":   func(*config.DRAM) {},
		"2mc-2ch":    func(d *config.DRAM) { d.MCs, d.Channels = 2, 2 },
		"6KiB-rows":  func(d *config.DRAM) { d.RowBytes = 6 * config.KiB },
		"3x12-banks": func(d *config.DRAM) { d.RanksPerChan, d.BanksPerRank = 3, 12 },
		"2mc-3ch":    func(d *config.DRAM) { d.MCs, d.Channels = 2, 3 },
		"all-odd": func(d *config.DRAM) {
			d.MCs, d.Channels, d.RanksPerChan, d.BanksPerRank = 3, 3, 3, 12
			d.RowBytes, d.MCInterleaveBytes, d.ChannelInterleaveBytes = 6*config.KiB, 4*config.KiB+512, 192
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			conf := cfg()
			shape(&conf)
			c := New(conf)
			edges := []uint64{0, 1, 63, 64, 1<<40 - 1, 1 << 40, 1<<63 - 1, 1 << 63, 1<<64 - 1}
			for _, g := range []int{conf.RowBytes, conf.MCInterleaveBytes, conf.ChannelInterleaveBytes} {
				for _, k := range []uint64{1, 127, 128, 1 << 13, 1<<20 + 3} {
					a := k * uint64(g)
					edges = append(edges, a-1, a, a+1)
				}
			}
			for _, a := range edges {
				matchDecode(t, c, a)
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 200000; i++ {
				matchDecode(t, c, uint64(rng.Int63n(1<<40)))
			}
		})
	}
}

// FuzzDecodeMatchesReference compares decode with refDecode on a geometry
// decoded from the first seven bytes (1..4 MCs and channels, 1..16 ranks,
// 1..32 banks, rows of 512 B..16 KiB and interleaves of 64 B..4 KiB in
// 512 B and 64 B steps, powers of two among them) and an address from
// each later eight bytes, little-endian.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 7, 15, 15, 3, 7, 0, 16, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 2, 11, 11, 2, 63, 0x40, 0x7f, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Add([]byte{3, 3, 15, 31, 31, 63, 15, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		conf := cfg()
		conf.MCs, conf.Channels = 1+int(data[0]%4), 1+int(data[1]%4)
		conf.RanksPerChan, conf.BanksPerRank = 1+int(data[2]%16), 1+int(data[3]%32)
		conf.RowBytes = 512 * (1 + int(data[4]%32))
		conf.ChannelInterleaveBytes = 64 * (1 + int(data[5]%64))
		conf.MCInterleaveBytes = 64 * (1 + int(data[6]%64))
		c := New(conf)
		for rest := data[7:]; len(rest) >= 8; rest = rest[8:] {
			matchDecode(t, c, binary.LittleEndian.Uint64(rest))
		}
	})
}

// readSink keeps BenchmarkDRAMRead's completion times live.
var readSink config.Time

// BenchmarkDRAMRead times one read on the Table III controller: 64B
// blocks uniform over 16 GiB (an xorshift stream), issued 5 ns apart, so
// the bus runs at about half its peak and the banks mostly miss rows.
func BenchmarkDRAMRead(b *testing.B) {
	c := New(cfg())
	x := uint64(88172645463325252)
	var now config.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		now += 5 * config.Nanosecond
		readSink = c.Read(now, x&(16<<30-1)&^63)
	}
}
