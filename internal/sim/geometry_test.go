package sim

import (
	"errors"
	"math"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/ctecache"
	"tmcc/internal/mc"
)

// TestDegenerateGeometryRejected pins the typed rejection of cache, TLB,
// MSHR, core, issue-width, clock, DRAM, OS-expansion, migration-buffer,
// MC queue-slot and CTE Buffer geometries the model cannot build. Most
// rows used to panic: with an integer divide by zero in the cache, TLB or
// DRAM constructor, the DRAM address map or bus scheduler, the core's
// issue step or at the first CTE Buffer insert, on the TLB's whole-sets
// check, making the per-core slices or the OS page pool, or indexing the
// empty MSHR file, DRAM controller list or migration buffer. Zero queue
// slots used to fall back silently to a different stream width in each
// page-stream loop; a negative issue width or burst ran with negative
// time steps, and a clock with no whole-picosecond cycle reported zero
// cycles. The oversized Buffer is refused because NewBuffer sizes its
// slot and count types for at most MaxBufferEntries, and a cache or TLB
// wider than cache.MaxWays because a set packs its recency ranks in one
// word. Zero cores with the rest of the system set used to build the
// default system instead. A budget whose frames or OS pages pass
// mc.MaxPages used to truncate frame numbers to 32 bits and then size the
// OS pool by the untruncated count.
func TestDegenerateGeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   mc.Kind
		edit   func(*config.System)
		cte    *config.CTECacheCfg
		budget uint64
	}{
		{name: "L1SizeKB=0", kind: mc.TMCC, edit: func(s *config.System) { s.Cache.L1SizeKB = 0 }},
		{name: "Assoc=0", kind: mc.Uncompressed, edit: func(s *config.System) { s.Cache.Assoc = 0 }},
		{name: "CTEBufEntries=0", kind: mc.TMCC, edit: func(s *config.System) { s.Comp.CTEBufEntries = 0 }},
		{name: "CTE.SizeKB=0", kind: mc.OSInspired, edit: func(s *config.System) { s.Comp.CTE.SizeKB = 0 }},
		{name: "CTEOverride.Assoc=0", kind: mc.Compresso, cte: &config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 4 * config.KiB}},
		{name: "TLBAssoc=0", kind: mc.TMCC, edit: func(s *config.System) { s.CPU.TLBAssoc = 0 }},
		{name: "TLBEntries=100", kind: mc.Uncompressed, edit: func(s *config.System) { s.CPU.TLBEntries = 100 }},
		{name: "TLBEntries=0", kind: mc.Compresso, edit: func(s *config.System) { s.CPU.TLBEntries = 0 }},
		{name: "MaxMisses=0", kind: mc.OSInspired, edit: func(s *config.System) { s.CPU.MaxMisses = 0 }},
		{name: "Cores=-1", kind: mc.Uncompressed, edit: func(s *config.System) { s.CPU.Cores = -1 }},
		{name: "DRAM.Channels=0", kind: mc.TMCC, edit: func(s *config.System) { s.DRAM.Channels = 0 }},
		{name: "DRAM.MCs=0", kind: mc.Uncompressed, edit: func(s *config.System) { s.DRAM.MCs = 0 }},
		{name: "DRAM.RanksPerChan=0", kind: mc.Compresso, edit: func(s *config.System) { s.DRAM.RanksPerChan = 0 }},
		{name: "DRAM.BanksPerRank=0", kind: mc.OSInspired, edit: func(s *config.System) { s.DRAM.BanksPerRank = 0 }},
		{name: "DRAM.RowBytes=0", kind: mc.TMCC, edit: func(s *config.System) { s.DRAM.RowBytes = 0 }},
		{name: "DRAM.MCInterleaveBytes=0", kind: mc.Compresso, edit: func(s *config.System) { s.DRAM.MCs, s.DRAM.MCInterleaveBytes = 2, 0 }},
		{name: "DRAM.ChannelInterleaveBytes=0", kind: mc.Uncompressed, edit: func(s *config.System) { s.DRAM.Channels, s.DRAM.ChannelInterleaveBytes = 2, 0 }},
		{name: "CTEBufEntries=MaxBufferEntries+1", kind: mc.TMCC, edit: func(s *config.System) { s.Comp.CTEBufEntries = ctecache.MaxBufferEntries + 1 }},
		{name: "MigrationBufPages=0/tmcc", kind: mc.TMCC, edit: func(s *config.System) { s.Comp.MigrationBufPages = 0 }},
		{name: "MigrationBufPages=0/os-inspired", kind: mc.OSInspired, edit: func(s *config.System) { s.Comp.MigrationBufPages = 0 }},
		{name: "MaxQueueSlots=0/tmcc", kind: mc.TMCC, edit: func(s *config.System) { s.Comp.MaxQueueSlots = 0 }},
		{name: "MaxQueueSlots=0/os-inspired", kind: mc.OSInspired, edit: func(s *config.System) { s.Comp.MaxQueueSlots = 0 }},
		{name: "CPU.Width=0", kind: mc.Uncompressed, edit: func(s *config.System) { s.CPU.Width = 0 }},
		{name: "CPU.Width=-1", kind: mc.TMCC, edit: func(s *config.System) { s.CPU.Width = -1 }},
		{name: "DRAM.TBL=0", kind: mc.Compresso, edit: func(s *config.System) { s.DRAM.TBL = 0 }},
		{name: "DRAM.TBL=-1", kind: mc.TMCC, edit: func(s *config.System) { s.DRAM.TBL = -1 }},
		{name: "OSExpansion=0", kind: mc.OSInspired, edit: func(s *config.System) { s.Comp.OSExpansion = 0 }},
		{name: "OSExpansion=-1", kind: mc.TMCC, edit: func(s *config.System) { s.Comp.OSExpansion = -1 }},
		{name: "FreqGHz=0", kind: mc.TMCC, edit: func(s *config.System) { s.CPU.FreqGHz = 0 }},
		{name: "FreqGHz=-2.8", kind: mc.Uncompressed, edit: func(s *config.System) { s.CPU.FreqGHz = -2.8 }},
		{name: "FreqGHz=NaN", kind: mc.Compresso, edit: func(s *config.System) { s.CPU.FreqGHz = math.NaN() }},
		{name: "FreqGHz=1001", kind: mc.OSInspired, edit: func(s *config.System) { s.CPU.FreqGHz = 1001 }},
		{name: "Cache.Assoc=9", kind: mc.Uncompressed, edit: func(s *config.System) { s.Cache.Assoc = 9 }},
		{name: "CTEOverride.Assoc=32", kind: mc.TMCC, cte: &config.CTECacheCfg{SizeKB: 64, ReachPerBlock: 32 * config.KiB, Assoc: 32}},
		{name: "TLBAssoc=32", kind: mc.Compresso, edit: func(s *config.System) { s.CPU.TLBEntries, s.CPU.TLBAssoc = 2048, 32 }},
		{name: "Cores=0", kind: mc.TMCC, edit: func(s *config.System) { s.CPU.Cores = 0 }},
		{name: "BudgetPages=5e9", kind: mc.TMCC, budget: 5_000_000_000},
		{name: "BudgetPages=MaxPages/4+1", kind: mc.OSInspired, budget: mc.MaxPages/4 + 1},
		{name: "BudgetPages=MaxPages/OSExpansion=1", kind: mc.Compresso, edit: func(s *config.System) { s.Comp.OSExpansion = 1 }, budget: mc.MaxPages},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := config.Default()
			if tc.edit != nil {
				tc.edit(&sys)
			}
			opt := Options{Benchmark: "canneal", Kind: tc.kind, Sys: sys, CTEOverride: tc.cte, BudgetPages: tc.budget, Seed: 42}
			// checkGeometry first: a row it let through could build a system
			// sized by the degenerate value (an OS pool of billions of pages).
			if err := checkGeometry(opt, sys); !errors.Is(err, ErrGeometry) {
				t.Fatalf("checkGeometry = %v; want an error matching ErrGeometry", err)
			}
			r, err := NewRunner(opt)
			if !errors.Is(err, ErrGeometry) {
				t.Fatalf("NewRunner = %v, %v; want an error matching ErrGeometry", r, err)
			}
		})
	}
}

// TestUnusedGeometryAccepted pins the other side of checkGeometry: a
// structure a kind never builds may have any size. The CTE Buffer exists
// only on TMCC, and the migration buffer and the page streams that hold
// MC queue slots only on TMCC and OS-inspired, so zero entries elsewhere
// must neither be rejected nor crash the run. The all-zero system is the
// default one, not a degenerate one.
func TestUnusedGeometryAccepted(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind mc.Kind
		edit func(*config.System)
	}{
		{"CTEBufEntries=0/compresso", mc.Compresso, func(s *config.System) { s.Comp.CTEBufEntries = 0 }},
		{"CTEBufEntries=0/os-inspired", mc.OSInspired, func(s *config.System) { s.Comp.CTEBufEntries = 0 }},
		{"MigrationBufPages=0/uncompressed", mc.Uncompressed, func(s *config.System) { s.Comp.MigrationBufPages = 0 }},
		{"MigrationBufPages=0/compresso", mc.Compresso, func(s *config.System) { s.Comp.MigrationBufPages = 0 }},
		{"MaxQueueSlots=0/compresso", mc.Compresso, func(s *config.System) { s.Comp.MaxQueueSlots = 0 }},
		{"Sys=zero/uncompressed", mc.Uncompressed, func(s *config.System) { *s = config.System{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := config.Default()
			tc.edit(&sys)
			r, err := NewRunner(Options{Benchmark: "canneal", Kind: tc.kind, Sys: sys, Seed: 42, WarmupAccesses: 1000, MeasureAccesses: 2000})
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
