// Package dram is a DDR4 timing model in the spirit of Ramulator, reduced
// to what the paper's experiments exercise: per-bank row-buffer state,
// FR-FCFS-Capped scheduling effects (a row-access cap forces periodic
// precharges), XOR-based bank mapping (Table III cites Intel Skylake's), a
// shared per-channel data bus that serializes 64B bursts, per-rank write
// mode (Section VI: TMCC puts only the written rank into write mode), and
// configurable channel/MC interleaving granularities (Section VIII).
//
// The model is a resource-reservation simulator: an access computes its
// completion time from the bank and bus ready-times and pushes those
// forward, so queueing delay emerges under load without a cycle loop.
package dram

import (
	"tmcc/internal/config"
	"tmcc/internal/fastdiv"
)

type bank struct {
	openRow int64 // -1 when closed
	readyAt config.Time
	hits    int // consecutive row hits, for the FR-FCFS cap
}

type rank struct {
	banks     []bank
	lastWrite bool
	writeUnt  config.Time // rank is in write mode until this time
	// refPhase offsets this rank's refresh windows so the channel's ranks
	// stagger theirs: tREFI/ranks*rank + tRFC.
	refPhase config.Time
}

type channel struct {
	sched busSched
	ranks []rank
	// stats
	busBusy config.Picos // picoseconds the data bus spent transferring
}

// busSched models the channel data bus as slotted epochs with backfill:
// requests are not globally time-ordered (serial translation chains and
// prefetches issue "in the future"), so a single monotone free pointer
// would serialize an idle bus. Each epoch holds epochLen/TBL bursts; a
// request takes the first free slot at or after its ready time.
type busSched struct {
	epochLen config.Time
	perEpoch int
	occ      []uint16
	base     int64 // epoch index of occ[0]
	tbl      config.Time
}

func newBusSched(tbl config.Time) busSched {
	epochLen := 16 * tbl // 40ns epochs at DDR4-3200
	return busSched{
		epochLen: epochLen,
		perEpoch: int(epochLen / tbl),
		occ:      make([]uint16, 4096), //tmcclint:allow magic-literal (epoch ring length, not the page size)
		tbl:      tbl,
	}
}

// alloc reserves one burst at or after t and returns its start time.
func (s *busSched) alloc(t config.Time) config.Time {
	if t < 0 {
		t = 0
	}
	e := int64(t / s.epochLen)
	if e < s.base {
		e = s.base
	}
	// Slide the window forward when the request is beyond it.
	for e-s.base >= int64(len(s.occ)) {
		shift := e - s.base - int64(len(s.occ)) + int64(len(s.occ))/2
		if shift < 1 {
			shift = 1
		}
		s.slide(shift)
	}
	for {
		i := e - s.base
		if i >= int64(len(s.occ)) {
			s.slide(int64(len(s.occ)) / 2)
			continue
		}
		if int(s.occ[i]) < s.perEpoch {
			s.occ[i]++
			start := config.Time(e)*s.epochLen + config.Time(s.occ[i]-1)*s.tbl
			if start < t {
				start = t
			}
			return start
		}
		e++
	}
}

func (s *busSched) slide(n int64) {
	if n >= int64(len(s.occ)) {
		for i := range s.occ {
			s.occ[i] = 0
		}
		s.base += n
		return
	}
	copy(s.occ, s.occ[n:])
	for i := int64(len(s.occ)) - n; i < int64(len(s.occ)); i++ {
		s.occ[i] = 0
	}
	s.base += n
}

// Stats aggregates controller activity for Figure 16/18-style reporting.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// TotalReadLatency sums (completion - issue) over reads, in
	// integer picoseconds.
	TotalReadLatency config.Picos
	// RefreshStalls counts accesses delayed behind a rank refresh.
	RefreshStalls uint64
}

// Controller models all memory controllers and channels of the machine.
type Controller struct {
	cfg   config.DRAM
	chans []channel // MCs * Channels entries
	Stats Stats

	// derived
	turnaround config.Time
	// decode's divisors: interleave granularities and counts, the row
	// size, the banks of a channel and of a rank.
	mcIlv, mcs, chIlv, channels, rowBytes, banksTotal, banksPerRank fastdiv.Divisor
}

// New builds the controller from Table III parameters.
func New(cfg config.DRAM) *Controller {
	n := cfg.MCs * cfg.Channels
	c := &Controller{
		cfg:          cfg,
		turnaround:   5 * config.Nanosecond,
		mcIlv:        fastdiv.New(uint64(cfg.MCInterleaveBytes)),
		mcs:          fastdiv.New(uint64(cfg.MCs)),
		chIlv:        fastdiv.New(uint64(cfg.ChannelInterleaveBytes)),
		channels:     fastdiv.New(uint64(cfg.Channels)),
		rowBytes:     fastdiv.New(uint64(cfg.RowBytes)),
		banksTotal:   fastdiv.New(uint64(cfg.RanksPerChan * cfg.BanksPerRank)),
		banksPerRank: fastdiv.New(uint64(cfg.BanksPerRank)),
	}
	c.chans = make([]channel, n)
	for i := range c.chans {
		c.chans[i].sched = newBusSched(cfg.TBL)
		c.chans[i].ranks = make([]rank, cfg.RanksPerChan)
		for r := range c.chans[i].ranks {
			banks := make([]bank, cfg.BanksPerRank)
			for b := range banks {
				banks[b].openRow = -1
			}
			c.chans[i].ranks[r].banks = banks
			c.chans[i].ranks[r].refPhase = cfg.TREFI/config.Time(cfg.RanksPerChan)*config.Time(r) + cfg.TRFC
		}
	}
	return c
}

// decode splits a physical byte address into channel/rank/bank/row indexes.
func (c *Controller) decode(addr uint64) (ch, rk, bk int, row int64) {
	mc := 0
	if c.cfg.MCs > 1 {
		mc = int(c.mcs.Mod(c.mcIlv.Div(addr)))
	}
	chIdx := 0
	if c.cfg.Channels > 1 {
		chIdx = int(c.channels.Mod(c.chIlv.Div(addr)))
	}
	ch = mc*c.cfg.Channels + chIdx
	rowAddr := c.rowBytes.Div(addr)
	// XOR-based bank hash (Skylake-like): fold upper row bits into the
	// bank index to spread conflicting strides. The hash uses only bits at
	// and above the row granularity so adjacent blocks within one row map
	// to the same bank (row-buffer locality).
	b := c.banksTotal.Mod(rowAddr ^ rowAddr>>7 ^ rowAddr>>13)
	rk = int(c.banksPerRank.Div(b))
	bk = int(c.banksPerRank.Mod(b))
	row = int64(c.banksTotal.Div(rowAddr))
	return
}

// ChannelOf reports the channel index (across all MCs) addr decodes to.
// The fault-injection layer uses it to target transient-busy faults at a
// specific channel; it is a pure function of the address and the
// interleaving configuration.
func (c *Controller) ChannelOf(addr uint64) int {
	ch, _, _, _ := c.decode(addr)
	return ch
}

// Channels reports the total channel count (MCs * channels per MC).
func (c *Controller) Channels() int { return len(c.chans) }

// Read issues a 64B read at time now and returns its completion time at the
// MC (NoC to the LLC is accounted by the caller).
func (c *Controller) Read(now config.Time, addr uint64) config.Time {
	done := c.access(now, addr, false)
	c.Stats.Reads++
	c.Stats.TotalReadLatency += done - now
	return done
}

// Write posts a 64B writeback at time now; it consumes bank and bus
// resources but the caller does not wait on it. The returned time is when
// the write retires (for queue accounting).
func (c *Controller) Write(now config.Time, addr uint64) config.Time {
	done := c.access(now, addr, true)
	c.Stats.Writes++
	return done
}

func (c *Controller) access(now config.Time, addr uint64, isWrite bool) config.Time {
	ch, rk, bk, row := c.decode(addr)
	chn := &c.chans[ch]
	rnk := &chn.ranks[rk]
	bnk := &rnk.banks[bk]

	start := now
	if bnk.readyAt > start {
		start = bnk.readyAt
	}
	// Refresh: every tREFI the rank is unavailable for tRFC; ranks are
	// staggered so the channel never refreshes everything at once.
	if c.cfg.TREFI > 0 && c.cfg.TRFC > 0 {
		phase := rnk.refPhase
		refStart := (start-phase)/c.cfg.TREFI*c.cfg.TREFI + phase
		if start >= refStart && start < refStart+c.cfg.TRFC {
			start = refStart + c.cfg.TRFC
			c.Stats.RefreshStalls++
		}
	}
	// Rank-level read/write turnaround: switching direction costs a bubble.
	// Reads do NOT wait for the rank's posted writes to drain — the MC
	// puts only the written rank into write mode and gives demand reads
	// priority over background page writes (Section VI), so a read pays
	// just the turnaround.
	if rnk.lastWrite != isWrite {
		start += c.turnaround
	}

	var core config.Time
	if bnk.openRow == row {
		// Row hit: CAS commands to an open row pipeline at the burst rate
		// (tCCD); the bank is ready for the next CAS after one burst slot.
		core = c.cfg.TCL
		bnk.hits++
		c.Stats.RowHits++
		if bnk.hits > c.cfg.RowAccessCap {
			// FR-FCFS-Capped: after the cap the streak loses priority and
			// re-arbitrates; model as a small scheduling bubble rather
			// than a forced precharge (the row stays open).
			core += c.cfg.TBL * 2
			bnk.hits = 1
		}
		bnk.readyAt = start + c.cfg.TBL
	} else {
		c.Stats.RowMisses++
		core = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCL
		bnk.openRow = row
		bnk.hits = 1
		bnk.readyAt = start + c.cfg.TRP + c.cfg.TRCD + c.cfg.TBL
	}

	// The 64B burst occupies the channel data bus.
	busAt := chn.sched.alloc(start + core)
	done := busAt + c.cfg.TBL
	chn.busBusy += c.cfg.TBL

	rnk.lastWrite = isWrite
	if isWrite {
		rnk.writeUnt = done
	}
	return done
}

// ResetStats clears counters and bus-busy accounting (end of warmup).
func (c *Controller) ResetStats() {
	c.Stats = Stats{}
	for i := range c.chans {
		c.chans[i].busBusy = 0
	}
}

// AvgReadLatency returns the mean read service time.
func (c *Controller) AvgReadLatency() config.Time {
	if c.Stats.Reads == 0 {
		return 0
	}
	return c.Stats.TotalReadLatency / config.Time(c.Stats.Reads)
}

// BusUtilization returns the fraction of wall-clock time the (aggregate)
// data buses were transferring, given the elapsed simulated time.
func (c *Controller) BusUtilization(elapsed config.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	var busy config.Time
	for i := range c.chans {
		busy += c.chans[i].busBusy
	}
	return float64(busy) / (float64(elapsed) * float64(len(c.chans)))
}

// RowHitRate reports the fraction of accesses that hit an open row.
func (c *Controller) RowHitRate() float64 {
	t := c.Stats.RowHits + c.Stats.RowMisses
	if t == 0 {
		return 0
	}
	return float64(c.Stats.RowHits) / float64(t)
}

// PeakBandwidthGBs is the theoretical aggregate bus bandwidth.
func (c *Controller) PeakBandwidthGBs() float64 {
	perChan := 64.0 / (float64(c.cfg.TBL) / float64(config.Nanosecond))
	return perChan * float64(len(c.chans))
}
