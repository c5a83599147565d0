package mc

import (
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
)

// checkConserved asserts the MC-side conservation invariant for the last
// access: the attribution scratch's components sum exactly to the
// measured MC latency (Total/Class are the simulator's to set, so only
// the component sum is checked here).
func checkConserved(t *testing.T, m *MC, now config.Time, res Result, label string) *attr.Access {
	t.Helper()
	a := m.Attr()
	if a == nil {
		t.Fatalf("%s: attribution scratch nil under an attr-carrying observer", label)
	}
	want := res.Done - now
	if got := a.AttributedSum(); got != want {
		t.Fatalf("%s: components sum to %d ps, MC latency %d ps\nscratch: %+v", label, got, want, a)
	}
	if want <= 0 {
		t.Fatalf("%s: non-positive MC latency %d", label, want)
	}
	cp := *a
	return &cp
}

func TestAttrUncompressedConserves(t *testing.T) {
	m := mustNew(t, Config{
		Kind: Uncompressed, Sys: config.Default(),
		BudgetPages: 1024, OSPages: 1024, Obs: obs.New(),
	})
	m.Place(5, false)
	res := m.Access(0, 5, 3, false, nil, false)
	a := checkConserved(t, m, 0, res, "uncompressed")
	if a.Comp[attr.CDataML1] != res.Done {
		t.Errorf("dataML1 = %d, want the full latency %d", a.Comp[attr.CDataML1], res.Done)
	}
	for c := attr.Component(0); c < attr.NumComponents; c++ {
		if c != attr.CDataML1 && a.Comp[c] != 0 {
			t.Errorf("uncompressed access charged %s = %d", c, a.Comp[c])
		}
	}
}

func TestAttrCompressoSerialConserves(t *testing.T) {
	m := mustNew(t, Config{
		Kind: Compresso, Sys: config.Default(),
		BudgetPages: 4096, OSPages: 16384, Sizes: sizesFor(t, "pageRank"),
		Seed: 1, Obs: obs.New(),
	})
	m.Place(10, false)
	res := m.Access(0, 10, 0, false, nil, true)
	a := checkConserved(t, m, 0, res, "compresso serial")
	if a.Comp[attr.CCTESerial] == 0 {
		t.Error("serial CTE miss attributed no cteSerial time")
	}
	if a.Comp[attr.CCTEParallel] != 0 || a.Comp[attr.COverlap] != 0 {
		t.Error("compresso charged speculative components")
	}

	// CTE hit on the same page: no serialization charged.
	res2 := m.Access(res.Done, 10, 1, false, nil, false)
	a2 := checkConserved(t, m, res.Done, res2, "compresso hit")
	if a2.Comp[attr.CCTESerial] != 0 {
		t.Errorf("CTE hit charged cteSerial = %d", a2.Comp[attr.CCTESerial])
	}
}

func newTwoLevelObserved(t testing.TB, kind Kind) *MC {
	t.Helper()
	return mustNew(t, Config{
		Kind:        kind,
		Sys:         config.Default(),
		BudgetPages: 4096,
		OSPages:     16384,
		Sizes:       sizesFor(t, "pageRank"),
		ML2HalfPage: 140 * config.Nanosecond,
		ML2Compress: 660 * config.Nanosecond,
		Seed:        1,
		Obs:         obs.New(),
	})
}

func TestAttrTMCCParallelConserves(t *testing.T) {
	m := newTwoLevelObserved(t, TMCC)
	m.Place(20, false)
	correct := m.CurrentCTE(20)
	res := m.Access(0, 20, 0, false, &correct, true)
	if res.Tag != TagParallelOK {
		t.Fatalf("tag = %v, want parallel-ok", res.Tag)
	}
	a := checkConserved(t, m, 0, res, "tmcc parallel-ok")
	if a.Comp[attr.CCTEParallel] == 0 {
		t.Error("parallel access attributed no cteParallel time")
	}
	if a.Comp[attr.COverlap] == 0 {
		t.Error("parallel access earned no overlap credit")
	}
	if a.Comp[attr.COverlap] > a.Comp[attr.CCTEParallel] ||
		a.Comp[attr.COverlap] > a.Comp[attr.CDataML1] {
		t.Errorf("overlap credit %d exceeds a fetch it overlaps (cte %d, data %d)",
			a.Comp[attr.COverlap], a.Comp[attr.CCTEParallel], a.Comp[attr.CDataML1])
	}
	if a.Comp[attr.CVerifyRedo] != 0 {
		t.Error("correct speculation charged verifyRedo")
	}

	// Stale embedded CTE: the re-access shows up as verifyRedo.
	m2 := newTwoLevelObserved(t, TMCC)
	m2.Place(21, false)
	stale := cte.Entry{DRAMPage: m2.CurrentCTE(21).DRAMPage + 7}
	res2 := m2.Access(0, 21, 0, false, &stale, true)
	if res2.Tag != TagParallelWrong {
		t.Fatalf("tag = %v, want parallel-wrong", res2.Tag)
	}
	a2 := checkConserved(t, m2, 0, res2, "tmcc parallel-wrong")
	if a2.Comp[attr.CVerifyRedo] == 0 {
		t.Error("failed speculation attributed no verifyRedo time")
	}
}

func TestAttrOSInspiredSerialConserves(t *testing.T) {
	m := newTwoLevelObserved(t, OSInspired)
	m.Place(30, false)
	res := m.Access(0, 30, 0, false, nil, true)
	if res.Tag != TagSerial {
		t.Fatalf("tag = %v, want serial", res.Tag)
	}
	a := checkConserved(t, m, 0, res, "os-inspired serial")
	if a.Comp[attr.CCTESerial] == 0 {
		t.Error("serial access attributed no cteSerial time")
	}
	if a.Comp[attr.COverlap] != 0 {
		t.Error("serial design earned overlap credit")
	}
}

func TestAttrML2DemandConserves(t *testing.T) {
	m := newTwoLevelObserved(t, TMCC)
	if !m.Place(40, true) {
		t.Fatal("ML2 placement failed")
	}
	res := m.Access(0, 40, 5, false, nil, false)
	if res.Tag != TagML2 {
		t.Fatalf("tag = %v, want ML2", res.Tag)
	}
	a := checkConserved(t, m, 0, res, "ml2 demand")
	if a.Comp[attr.CDecompress] != 140*config.Nanosecond {
		t.Errorf("decompress = %d, want the configured half-page latency", a.Comp[attr.CDecompress])
	}
	if a.Comp[attr.CDataML2] == 0 {
		t.Error("ML2 demand read attributed no dataML2 time")
	}
	if a.Comp[attr.CDataML1] != 0 {
		t.Error("ML2 demand read charged dataML1")
	}
}

// TestAttrScratchDisabledWithoutRecorder pins the flags-off contract: an
// observer without an attr.Recorder (or no observer at all) leaves the
// scratch nil, so the hot path pays only the nil checks.
func TestAttrScratchDisabledWithoutRecorder(t *testing.T) {
	plain := mustNew(t, Config{Kind: Uncompressed, Sys: config.Default(), BudgetPages: 64, OSPages: 64})
	if plain.Attr() != nil {
		t.Error("unobserved MC allocated an attribution scratch")
	}
	metricsOnly := mustNew(t, Config{
		Kind: Uncompressed, Sys: config.Default(), BudgetPages: 64, OSPages: 64,
		Obs: &obs.Observer{Reg: obs.NewRegistry()},
	})
	if metricsOnly.Attr() != nil {
		t.Error("metrics-only observer allocated an attribution scratch")
	}
}

// TestAttrScratchResetPerAccess: a second access must not inherit the
// first access's components.
func TestAttrScratchResetPerAccess(t *testing.T) {
	m := newTwoLevelObserved(t, TMCC)
	m.Place(50, false)
	res := m.Access(0, 50, 0, false, nil, true) // serial miss: cteSerial > 0
	if m.Attr().Comp[attr.CCTESerial] == 0 {
		t.Fatal("fixture lost its bite: no serial CTE fetch")
	}
	res2 := m.Access(res.Done, 50, 1, false, nil, false) // CTE hit
	a := checkConserved(t, m, res.Done, res2, "second access")
	if a.Comp[attr.CCTESerial] != 0 {
		t.Errorf("scratch leaked cteSerial = %d across accesses", a.Comp[attr.CCTESerial])
	}
}
