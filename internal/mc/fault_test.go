package mc

import (
	"errors"
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/cte"
	"tmcc/internal/fault"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
)

func newInjected(t testing.TB, kind Kind, bench string, budget, osPages uint64, inj *fault.Injector) *MC {
	t.Helper()
	return mustNew(t, Config{
		Kind:        kind,
		Sys:         config.Default(),
		BudgetPages: budget,
		OSPages:     osPages,
		Sizes:       sizesFor(t, bench),
		ML2HalfPage: 140 * config.Nanosecond,
		ML2Compress: 660 * config.Nanosecond,
		Seed:        1,
		Obs:         obs.New(),
		Inject:      inj,
	})
}

// TestForcedMisSpeculationPerKind drives an injector-perturbed embedded
// CTE into every design. TMCC (the only speculating kind) must detect the
// mismatch, re-fetch serially (verifyRedo charged, overlap credit intact,
// attribution conserved), and classify the access as parallel-wrong; the
// non-speculating kinds must ignore the poisoned hint entirely.
func TestForcedMisSpeculationPerKind(t *testing.T) {
	const ppn, bits = 20, 20
	for _, kind := range []Kind{Uncompressed, Compresso, OSInspired, TMCC} {
		inj := fault.NewInjector(fault.Plan{Seed: 11, CTECorrupt: 1}, fault.RunSalt("unit", kind.String()))
		m := newInjected(t, kind, "pageRank", 4096, 16384, inj)
		if kind == Uncompressed {
			m = mustNew(t, Config{
				Kind: Uncompressed, Sys: config.Default(),
				BudgetPages: 4096, OSPages: 16384, Obs: obs.New(), Inject: inj,
			})
		}
		m.Place(ppn, false)
		truth := m.CurrentCTE(ppn)
		wrongPage, fired := inj.PerturbCTE(truth.DRAMPage, bits)
		if !fired || wrongPage == truth.DRAMPage {
			t.Fatalf("%s: injector did not perturb the CTE", kind)
		}
		wrong := cte.Entry{DRAMPage: wrongPage}
		res := m.Access(0, ppn, 0, false, &wrong, true)
		switch kind {
		case TMCC:
			if res.Tag != TagParallelWrong {
				t.Fatalf("tmcc: tag = %v, want parallel-wrong", res.Tag)
			}
			a := checkConserved(t, m, 0, res, "tmcc mis-speculation")
			if a.Comp[attr.CVerifyRedo] == 0 {
				t.Error("tmcc: mis-speculation charged no verifyRedo")
			}
			if a.Comp[attr.COverlap] > a.Comp[attr.CCTEParallel] ||
				a.Comp[attr.COverlap] > a.Comp[attr.CDataML1] {
				t.Error("tmcc: overlap credit exceeds a fetch it overlaps")
			}
			if m.Stats.ParallelWrong != 1 || m.Stats.ParallelOK != 0 {
				t.Errorf("tmcc: speculation stats %+v", m.Stats)
			}
			// The recovered access must be strictly slower than a correct
			// speculation on an identical controller.
			clean := newInjected(t, TMCC, "pageRank", 4096, 16384, nil)
			clean.Place(ppn, false)
			good := clean.CurrentCTE(ppn)
			ok := clean.Access(0, ppn, 0, false, &good, true)
			if ok.Tag != TagParallelOK || res.Done <= ok.Done {
				t.Errorf("tmcc: recovery (%d ps) not slower than verified speculation (%d ps)",
					res.Done, ok.Done)
			}
		case Uncompressed:
			if res.Tag != TagUncompressed {
				t.Errorf("%s: tag = %v, poisoned hint changed the path", kind, res.Tag)
			}
		default:
			if res.Tag == TagParallelOK || res.Tag == TagParallelWrong {
				t.Errorf("%s: non-speculating design speculated (tag %v)", kind, res.Tag)
			}
		}
	}
}

// TestPayloadCorruptionQuarantines pins recovery rung (b): a bit-flipped
// ML2 payload is caught by the per-page checksum, served after a bounded
// retry (charged as verifyRedo), and the page is quarantined to ML1 where
// eviction must never re-compress it.
func TestPayloadCorruptionQuarantines(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 5, Payload: 1}, fault.RunSalt("unit", "payload"))
	m := newInjected(t, TMCC, "pageRank", 4096, 16384, inj)
	if !m.Place(40, true) {
		t.Fatal("ML2 placement failed")
	}
	res := m.Access(0, 40, 5, false, nil, false)
	if res.Tag != TagML2 {
		t.Fatalf("tag = %v, want ML2", res.Tag)
	}
	a := checkConserved(t, m, 0, res, "quarantined ML2 read")
	if a.Comp[attr.CVerifyRedo] != 140*config.Nanosecond {
		t.Errorf("checksum retry charged %d ps, want one extra half-page (140ns)",
			a.Comp[attr.CVerifyRedo])
	}
	if m.InML2(40) {
		t.Fatal("corrupted page still in ML2 after quarantine")
	}
	c := inj.Counters()
	if c.Payload != 1 || c.Quarantines != 1 {
		t.Errorf("fault counters %+v, want one payload fault and one quarantine", c)
	}
	// The quarantined page must stay uncompressed: background eviction
	// pressure may not push it back to ML2.
	m.TouchPage(40)
	m.Settle()
	if m.InML2(40) {
		t.Error("quarantined page re-compressed into ML2")
	}
	if err := m.AuditPages(); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityPressureDegradesThenExhausts walks the whole ladder on a
// tiny budget with 40% incompressible content: watermark evictions, then
// emergency force-migrations, then the overflow region, and finally a
// sticky typed ErrCapacityExhausted — never a panic.
func TestCapacityPressureDegradesThenExhausts(t *testing.T) {
	m := newInjected(t, TMCC, "canneal", 40, 128, nil)
	sawOverflow := false
	for ppn := uint64(0); ppn < 120 && m.Err() == nil; ppn++ {
		// Cold-place the first pages into ML2 (as warmup does), leaving
		// partially-filled super-chunks for emergency migration to reuse;
		// the rest land hot in ML1 until the pool drains.
		m.Place(ppn, ppn < 20)
		if m.pressure.overflowUsed > 0 {
			sawOverflow = true
		}
	}
	err := m.Err()
	if err == nil {
		t.Fatal("120 incompressible-heavy pages on a 40-page budget did not exhaust capacity")
	}
	if !errors.Is(err, ErrCapacityExhausted) {
		t.Fatalf("error %v does not wrap ErrCapacityExhausted", err)
	}
	var ce *CapacityError
	if !errors.As(err, &ce) || ce.Budget != 40 {
		t.Fatalf("error %v is not a CapacityError carrying the budget", err)
	}
	if !sawOverflow {
		t.Error("exhaustion hit before the overflow region was ever used")
	}
	if m.pressure.emergencies == 0 {
		t.Error("exhaustion hit without any emergency force-migration")
	}
	if err := m.AuditPages(); err != nil {
		t.Fatalf("accounting inconsistent after graceful exhaustion: %v", err)
	}
	// The error is sticky: later failures keep the first diagnosis.
	m.Place(121, false)
	if got := m.Err(); !errors.Is(got, ErrCapacityExhausted) {
		t.Errorf("sticky error lost: %v", got)
	}
}

// TestDRAMFaultsDelayButComplete pins recovery rung (c): spikes and
// transient channel busy slow the request path (with bounded retries and
// an eventual timeout-issue) but never lose the access.
func TestDRAMFaultsDelayButComplete(t *testing.T) {
	plan := fault.Plan{
		Seed: 3, Spike: 1, SpikeLatency: fault.DefaultSpikeLatency,
		Busy: 1, BusyBackoff: fault.DefaultBusyBackoff, BusyRetries: 2, BusyChannel: -1,
	}
	inj := fault.NewInjector(plan, fault.RunSalt("unit", "dram"))
	faulty := newInjected(t, TMCC, "pageRank", 4096, 16384, inj)
	clean := newInjected(t, TMCC, "pageRank", 4096, 16384, nil)
	faulty.Place(7, false)
	clean.Place(7, false)
	fres := faulty.Access(0, 7, 0, false, nil, false)
	cres := clean.Access(0, 7, 0, false, nil, false)
	if fres.Done <= cres.Done {
		t.Errorf("always-on DRAM faults (%d ps) not slower than clean run (%d ps)",
			fres.Done, cres.Done)
	}
	checkConserved(t, faulty, 0, fres, "faulty dram access")
	c := inj.Counters()
	if c.Spikes == 0 || c.Busy == 0 || c.Retries == 0 {
		t.Errorf("always-on plan fired nothing: %+v", c)
	}
	if c.Timeouts == 0 {
		t.Errorf("probability-1 busy with 2 retries never timed out: %+v", c)
	}
}

// TestBudgetBelowCTETableIsCapacityExhausted: a budget too small for the
// design's own CTE table is capacity exhaustion like a failed placement,
// so callers that match ErrCapacityExhausted (tmccsim's diagnosis, the
// Table IV budget search) see it.
func TestBudgetBelowCTETableIsCapacityExhausted(t *testing.T) {
	for _, kind := range []Kind{Compresso, OSInspired, TMCC} {
		_, err := New(Config{Kind: kind, Sys: config.Default(), BudgetPages: 10, OSPages: 16384, Sizes: sizesFor(t, "canneal")})
		if !errors.Is(err, ErrCapacityExhausted) || !strings.Contains(err.Error(), "CTE table") {
			t.Errorf("%v: New on a 10-page budget = %v, want a CTE-table error wrapping ErrCapacityExhausted", kind, err)
		}
	}
}
