package sim

import (
	"testing"

	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/ras"
)

// chaosPlan arms every fault class at rates high enough to fire within a
// quick window but low enough that runs complete.
func chaosPlan() fault.Plan {
	return fault.Plan{
		Seed: 99, CTECorrupt: 0.05, CTEStale: 0.02, Payload: 0.02,
		Spike: 0.01, SpikeLatency: fault.DefaultSpikeLatency,
		Busy: 0.01, BusyBackoff: fault.DefaultBusyBackoff, BusyRetries: 3, BusyChannel: -1,
	}
}

func runChaos(t *testing.T, kind mc.Kind, plan fault.Plan) (Metrics, fault.Counters) {
	t.Helper()
	opt := tightOpts(t)
	opt.Kind = kind
	ob := obs.New()
	inj := fault.NewInjector(plan, fault.RunSalt("sim-chaos", kind.String()))
	r, err := NewRunnerFull(opt, ob, inj, ras.Config{})
	if err != nil {
		t.Fatalf("%v: NewRunnerFull: %v", kind, err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatalf("%v: chaos run aborted: %v", kind, err)
	}
	if err := ob.At.Snapshot().Conserved(); err != nil {
		t.Fatalf("%v: attribution broke under faults: %v", kind, err)
	}
	if err := r.mcc.AuditPages(); err != nil {
		t.Fatalf("%v: page accounting broke under faults: %v", kind, err)
	}
	return m, inj.Counters()
}

// TestChaosDeterministicPerKind is the in-process, every-design half of
// make smoke's chaos check: under a seeded all-faults plan every design
// completes (no panic, attribution conserved, audits clean), the same
// (plan, salt) reproduces byte-identical metrics AND fault counters, and
// the plan actually fires on every design.
func TestChaosDeterministicPerKind(t *testing.T) {
	for _, kind := range []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC} {
		m1, c1 := runChaos(t, kind, chaosPlan())
		m2, c2 := runChaos(t, kind, chaosPlan())
		if m1 != m2 {
			t.Errorf("%v: same plan+seed, different metrics:\n%+v\n%+v", kind, m1, m2)
		}
		if c1 != c2 {
			t.Errorf("%v: same plan+seed, different fault counters:\n%v\n%v", kind, c1, c2)
		}
		if c1.Total() == 0 {
			t.Errorf("%v: chaos plan fired nothing", kind)
		}
	}
}

// TestFaultsOffIsByteIdentical pins the zero-cost contract: a disabled
// plan yields a nil injector, and a nil-injector run is the plain run —
// every fault site is a single nil check that changes nothing.
func TestFaultsOffIsByteIdentical(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 1}, 7)
	if inj != nil {
		t.Fatal("disabled plan built a live injector")
	}
	checkHookBundle(t, hookBundle{opt: tightOpts(t), kinds: []mc.Kind{mc.TMCC}, inj: inj, inert: true})
}

// TestCTECorruptionNeverChangesDataOutcomes asserts the recovery
// guarantee for fault site (a): corrupting embedded CTEs must be detected
// (mis-speculations rise) and recovered — every access still completes,
// placement is untouched, and no data is lost. Timing-dependent counts
// (TLB misses, instruction overlap) may legitimately shift because
// recovery changes latencies; the per-access "verified fetch hit the true
// frame" assertion lives in the mc layer under tmccdebug.
func TestCTECorruptionNeverChangesDataOutcomes(t *testing.T) {
	opt := tightOpts(t)
	clean := mustRunOpt(t, opt)
	faulty, c := runChaos(t, mc.TMCC, fault.Plan{Seed: 13, CTECorrupt: 0.2, CTEStale: 0.1})
	if c.CTECorrupt == 0 && c.CTEStale == 0 {
		t.Fatal("CTE plan fired nothing")
	}
	if faulty.MemAccesses != clean.MemAccesses {
		t.Errorf("corrupted CTEs lost accesses: clean %d, faulty %d",
			clean.MemAccesses, faulty.MemAccesses)
	}
	if faulty.Used != clean.Used {
		t.Errorf("access-time corruption changed placement: clean %d frames, faulty %d",
			clean.Used, faulty.Used)
	}
	if faulty.MC.ParallelWrong <= clean.MC.ParallelWrong {
		t.Errorf("corruption did not raise mis-speculations: clean %d, faulty %d",
			clean.MC.ParallelWrong, faulty.MC.ParallelWrong)
	}
}

func mustRunOpt(t *testing.T, opt Options) Metrics {
	t.Helper()
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	return mustRun(t, r)
}
