package sim

import (
	"testing"

	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/ras"
)

// TestHeatmapConservationAllKinds runs the CI-sized canneal trace under
// every MC design with the heatmap armed and asserts the full
// conservation audit: Σ per-region counts equals the group total, total
// heat equals the lifetime attr class counts, and events / CTE locality /
// compressed sizes equal the lifetime mc.<kind>.* registry instruments.
// This is the per-design, sim-level end of the invariant
// TestQuickSuiteMatchesGolden rechecks over the whole quick suite.
func TestHeatmapConservationAllKinds(t *testing.T) {
	for _, kind := range benchKinds {
		t.Run(kind.String(), func(t *testing.T) {
			ob := &obs.Observer{
				Reg:  obs.NewRegistry(),
				At:   attr.NewRecorder(),
				Heat: heatmap.NewRecorder(0, 0),
			}
			r, err := NewRunnerFull(Options{
				Benchmark:       "canneal",
				Kind:            kind,
				WarmupAccesses:  30000,
				MeasureAccesses: 30000,
				Seed:            42,
			}, ob, nil, ras.Config{})
			if err != nil {
				t.Fatalf("NewRunnerFull(canneal,%v): %v", kind, err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			hm := ob.Heat.Snapshot()
			if len(hm.Groups) != 1 {
				t.Fatalf("groups = %d, want 1", len(hm.Groups))
			}
			g := hm.Groups[0]
			if g.Total.HeatTotal() == 0 {
				t.Fatal("no access heat recorded")
			}
			if g.Total.Sweeps == 0 {
				t.Fatal("no residency sweep ran")
			}
			if err := ob.Verify(); err != nil {
				t.Fatalf("conservation: %v", err)
			}
			// Compressing designs must see ML1 pages; the compressed tiers
			// and the size histogram only apply where the design has them.
			if kind != mc.Uncompressed && g.Total.Res[heatmap.TierML1] == 0 {
				t.Error("no ML1 residency sampled")
			}
		})
	}
}
