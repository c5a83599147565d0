package sim

import (
	"errors"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/mc"
)

// TestDegenerateGeometryRejected pins the typed rejection of cache and
// CTE Buffer geometries the model cannot build. Each row used to panic
// with an integer divide by zero, in the cache constructor or at the
// first CTE Buffer insert.
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
