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
// slot and count types for at most MaxBufferEntries.
func TestDegenerateGeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind mc.Kind
		edit func(*config.System)
		cte  *config.CTECacheCfg
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := config.Default()
			if tc.edit != nil {
				tc.edit(&sys)
			}
			r, err := NewRunner(Options{Benchmark: "canneal", Kind: tc.kind, Sys: sys, CTEOverride: tc.cte, Seed: 42})
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
// must neither be rejected nor crash the run.
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
