package exp

import (
	"testing"

	"tmcc/internal/exp/engine"
)

// withEngine swaps the package-level engine for the test's duration so each
// test controls worker count and observes a fresh memo table. Tests in this
// package run sequentially, so the swap is race-free.
func withEngine(t *testing.T, e *engine.Engine) {
	t.Helper()
	old := eng
	eng = e
	t.Cleanup(func() { eng = old })
}

func TestMeanSkipsRaggedRows(t *testing.T) {
	tab := &Table{Header: []string{"b", "x", "y"}}
	tab.Add("full1", 2, 4)
	tab.Add("short", 100) // ragged: must not contribute to either column
	tab.Add("full2", 4, 8)
	tab.Mean("mean")
	got := lastRow(t, tab)
	if got.Vals[0] != 3 || got.Vals[1] != 6 {
		t.Fatalf("Mean over ragged table = %v, want [3 6]", got.Vals)
	}
}

func TestGeoMeanSkipsRaggedRows(t *testing.T) {
	tab := &Table{Header: []string{"b", "x"}}
	tab.Add("full1", 2)
	tab.Add("short") // ragged: zero values
	tab.Add("full2", 8)
	tab.GeoMean("geomean")
	got := lastRow(t, tab)
	if g := got.Vals[0]; g < 3.99 || g > 4.01 {
		t.Fatalf("GeoMean over ragged table = %v, want ~4", g)
	}
}

func TestMeanEmptyTableAddsNoRow(t *testing.T) {
	empty := &Table{Header: []string{"b", "x"}}
	empty.Mean("mean")
	empty.GeoMean("geomean")
	if len(empty.Rows) != 0 {
		t.Fatalf("Mean/GeoMean on empty table added rows: %v", empty.Rows)
	}
}

// TestEngineMemoizationAcrossExperiments checks the tentpole property the
// old per-file budget cache could not provide: simulation points shared
// between experiments execute exactly once per process. Fig19's TMCC runs
// are a strict subset of Fig17's job list, so after Fig17 has populated the
// memo table, Fig19 must complete without a single new simulation.
func TestEngineMemoizationAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick experiments")
	}
	withEngine(t, engine.New(2))

	if _, err := Fig17(quickCfg()); err != nil {
		t.Fatal(err)
	}
	after17 := eng.Stats()
	if after17.Runs == 0 {
		t.Fatal("fig17 executed no simulations")
	}
	if _, err := Fig19(quickCfg()); err != nil {
		t.Fatal(err)
	}
	after19 := eng.Stats()
	if after19.Runs != after17.Runs {
		t.Fatalf("fig19 executed %d new simulations, want 0 (all shared with fig17)",
			after19.Runs-after17.Runs)
	}
	if wantHits := after17.Runs / 2; after19.Hits-after17.Hits != wantHits {
		t.Fatalf("fig19 memo hits = %d, want %d (one TMCC run per benchmark)",
			after19.Hits-after17.Hits, wantHits)
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the -j byte-identity
// guarantee: the rendered CSV must not depend on scheduling. ext-2dwalk
// exercises grid collection order and float accumulation; fig6 exercises
// the Map lane.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns experiments under two engines")
	}
	for _, id := range []string{"ext-2dwalk", "fig6"} {
		run, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var serialCSV string
		for _, workers := range []int{1, 8} {
			withEngine(t, engine.New(workers))
			tab, err := run(quickCfg())
			if err != nil {
				t.Fatalf("%s with %d workers: %v", id, workers, err)
			}
			if workers == 1 {
				serialCSV = tab.CSV()
			} else if tab.CSV() != serialCSV {
				t.Fatalf("%s: CSV with %d workers differs from serial output", id, workers)
			}
		}
	}
}
