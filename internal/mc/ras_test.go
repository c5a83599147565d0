package mc

import (
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/fault"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/ras"
)

// newRAS builds a TMCC controller with the given RAS policy and injector
// over the unit-test working set, observed through a run view.
func newRAS(t testing.TB, rcfg ras.Config, inj *fault.Injector) *MC {
	t.Helper()
	return mustNew(t, Config{
		Kind:        TMCC,
		Sys:         config.Default(),
		BudgetPages: 4096,
		OSPages:     16384,
		Sizes:       sizesFor(t, "pageRank"),
		ML2HalfPage: 140 * config.Nanosecond,
		ML2Compress: 660 * config.Nanosecond,
		Seed:        1,
		Obs:         obs.New().RunView("unit", "tmcc").Observer(),
		Inject:      inj,
		RAS:         rcfg,
	})
}

// counterValue folds the controller's counts through its run view and
// reads one lifetime instrument out of the view's registry.
func counterValue(t *testing.T, m *MC, path string) int64 {
	t.Helper()
	m.heat.Close()
	for _, sm := range m.cfg.Obs.Reg.Snapshot().Samples {
		if sm.Path == path {
			return sm.Value
		}
	}
	return 0
}

// TestScrubPatrolDetectsQuarantinesAndRetires drives the background
// scrubber end to end: a window edge grants the patrol the whole table, a
// latent payload fault (injector at probability 1) trips the checksum on
// the one compressed page, the page is quarantined out of ML2 off the
// critical path, the strike crosses a 1-strike retirement threshold, and
// the frame is permanently withdrawn — the freelist never re-issues it
// and eviction pressure never re-compresses the page.
func TestScrubPatrolDetectsQuarantinesAndRetires(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 5, Payload: 1}, fault.RunSalt("unit", "ras-scrub"))
	rcfg := ras.Config{
		RetireStrikes: 1,
		WindowPS:      100 * config.Nanosecond,
		ScrubPages:    16384, // whole table per window
		ScrubPagePS:   25 * config.Nanosecond,
	}
	m := newRAS(t, rcfg, inj)
	if !m.Place(40, true) {
		t.Fatal("ML2 placement failed")
	}
	m.Place(50, false)

	// A demand access past the first window edge runs the patrol; its
	// banked scrub cost drains onto this access, so the breakdown must
	// conserve with a nonzero degraded component.
	now := 150 * config.Nanosecond
	res := m.Access(now, 50, 0, false, nil, false)
	a := checkConserved(t, m, now, res, "access draining scrub backlog")
	if a.Comp[attr.CDegraded] == 0 {
		t.Error("patrol cost drained without charging the degraded component")
	}

	if m.InML2(40) {
		t.Fatal("corrupted page still compressed after patrol quarantine")
	}
	if got := m.RASRetired(); got != 1 {
		t.Fatalf("RASRetired = %d, want 1", got)
	}
	st := &m.pages[40]
	if !st.retired || !st.incompressible {
		t.Fatalf("page state after retirement: %+v", st)
	}
	if c := inj.Counters(); c.Quarantines != 1 {
		t.Errorf("fault counters %+v, want one quarantine", c)
	}
	for path, want := range map[string]int64{
		"mc.tmcc.ras.retired":          1,
		"mc.tmcc.ras.strikes":          1,
		"mc.tmcc.ras.scrub.detections": 1,
		"mc.tmcc.fault.quarantines":    1,
	} {
		if got := counterValue(t, m, path); got != want {
			t.Errorf("%s = %d, want %d", path, got, want)
		}
	}
	if got := counterValue(t, m, "mc.tmcc.ras.scrub.pages"); got < 16384 {
		t.Errorf("scrub.pages = %d, want a full-table pass", got)
	}

	// The retired frame is out of circulation for good: pushing it back
	// is a no-op and draining the freelist never yields it again.
	chunk := st.chunk
	m.ml1.Push(chunk)
	var drained []uint32
	for {
		c, ok := m.ml1.Pop()
		if !ok {
			break
		}
		if c == chunk {
			t.Fatalf("freelist re-issued retired chunk %d", chunk)
		}
		drained = append(drained, c)
	}
	for i := len(drained) - 1; i >= 0; i-- {
		m.ml1.Push(drained[i])
	}

	// Eviction pressure must never re-compress the retired page.
	m.TouchPage(40)
	m.Settle()
	if m.InML2(40) {
		t.Error("retired page re-compressed into ML2")
	}

	// Residency sweeps report the page in the dedicated retired tier. The
	// one-page regions of this heatmap make region 40 page 40.
	hob := &obs.Observer{Heat: heatmap.NewRecorder(1, 0)}
	m.heat = hob.RunView("unit", "tmcc")
	m.SampleResidency()
	m.heat.Close()
	var res40 heatmap.Delta
	for _, r := range hob.Heat.Snapshot().Groups[0].Regions {
		if r.Region == 40 {
			res40 = r.Delta
		}
	}
	if res40.Res[heatmap.TierRetired] != 1 || res40.Res[heatmap.TierML1]+res40.Res[heatmap.TierML2] != 0 {
		t.Errorf("retired page sampled as %v, want once in %v", res40.Res, heatmap.TierRetired)
	}
	if err := m.AuditPages(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerDegradedWritethrough opens the circuit breaker with a demand
// quarantine (threshold 1) and asserts degraded mode: posted writes pay
// the writethrough penalty, charged to the degraded attr component so the
// access breakdown still conserves, and the transition counters record the
// open.
func TestBreakerDegradedWritethrough(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 9, Payload: 1}, fault.RunSalt("unit", "ras-breaker"))
	rcfg := ras.Config{
		BreakerFaults:       1,
		BreakerCleanWindows: 1000, // stays open for the whole test
		WindowPS:            100 * config.Nanosecond,
		WritethroughPS:      50 * config.Nanosecond,
	}
	m := newRAS(t, rcfg, inj)
	if !m.Place(40, true) {
		t.Fatal("ML2 placement failed")
	}
	m.Place(50, false)

	// Demand read trips the checksum: quarantine + strike into the
	// current breaker window.
	if res := m.Access(0, 40, 0, false, nil, false); res.Tag != TagML2 {
		t.Fatalf("tag = %v, want ML2", res.Tag)
	}
	if m.RASDegraded() {
		t.Fatal("breaker open before a window edge")
	}

	// The next window edge evaluates the faulty window and opens.
	now := 150 * config.Nanosecond
	m.Access(now, 50, 0, false, nil, false)
	if !m.RASDegraded() {
		t.Fatal("breaker did not open past the faulty window")
	}
	if got := counterValue(t, m, "mc.tmcc.ras.breaker.opens"); got != 1 {
		t.Errorf("breaker.opens = %d, want 1", got)
	}

	// A posted write now pays the writethrough penalty, conserved into
	// the degraded component.
	now = 160 * config.Nanosecond
	res := m.Access(now, 50, 0, true, nil, false)
	a := checkConserved(t, m, now, res, "degraded write")
	if a.Comp[attr.CDegraded] != 50*config.Nanosecond {
		t.Errorf("degraded write charged %d ps, want 50ns", a.Comp[attr.CDegraded])
	}
	if got := counterValue(t, m, "mc.tmcc.ras.degradedWrites"); got != 1 {
		t.Errorf("degradedWrites = %d, want 1", got)
	}

	// Reads stay penalty-free in degraded mode.
	now = 170 * config.Nanosecond
	m.Access(now, 50, 0, false, nil, false)
	if got := counterValue(t, m, "mc.tmcc.ras.degradedWrites"); got != 1 {
		t.Errorf("a read paid the writethrough penalty (degradedWrites = %d)", got)
	}
	if err := m.AuditPages(); err != nil {
		t.Fatal(err)
	}
}

// TestRASZeroConfigIsByteIdentical pins the off contract at the
// controller level: a zero ras.Config arms nothing, so every access result
// matches a controller built without the field — the RAS hooks are
// genuinely one nil branch.
func TestRASZeroConfigIsByteIdentical(t *testing.T) {
	plain := newInjected(t, TMCC, "pageRank", 4096, 16384, nil)
	rassed := newRAS(t, ras.Config{}, nil)
	for _, m := range []*MC{plain, rassed} {
		m.Place(40, true)
		m.Place(50, false)
	}
	for i := 0; i < 200; i++ {
		ppn := uint64(40 + (i%2)*10)
		now := config.Time(i) * 10 * config.Nanosecond
		write := i%3 == 0
		a := plain.Access(now, ppn, i%64, write, nil, false)
		b := rassed.Access(now, ppn, i%64, write, nil, false)
		if a != b {
			t.Fatalf("access %d diverged: %+v vs %+v", i, a, b)
		}
	}
	if rassed.RASRetired() != 0 || rassed.RASDegraded() {
		t.Error("zero config built live RAS state")
	}
}
