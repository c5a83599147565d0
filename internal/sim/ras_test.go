package sim

import (
	"testing"

	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/ras"
)

// TestRASOffIsByteIdentical pins the layer's zero-cost contract at the
// system level: a zero ras.Config threads a nil *ras.State through the
// controller, and the run is the plain run — every RAS hook is one nil
// branch that changes nothing.
func TestRASOffIsByteIdentical(t *testing.T) {
	checkHookBundle(t, hookBundle{opt: tightOpts(t), kinds: []mc.Kind{mc.TMCC}, rcfg: ras.Config{}, inert: true})
}

// runRAS executes one observed chaos run with the RAS layer armed and
// verifies the invariant battery the chaos campaign enforces.
func runRAS(t *testing.T, kind mc.Kind, plan fault.Plan, rcfg ras.Config) (Metrics, *obs.Observer, fault.Counters) {
	t.Helper()
	opt := tightOpts(t)
	opt.Kind = kind
	ob := &obs.Observer{
		Reg:  obs.NewRegistry(),
		At:   attr.NewRecorder(),
		Heat: heatmap.NewRecorder(0, 0),
	}
	var inj *fault.Injector
	if plan.Enabled() {
		inj = fault.NewInjector(plan, fault.RunSalt("sim-ras", kind.String()))
	}
	r, err := NewRunnerFull(opt, ob, inj, rcfg)
	if err != nil {
		t.Fatalf("%v: NewRunnerFull: %v", kind, err)
	}
	m, err := r.Run()
	if err != nil {
		t.Fatalf("%v: RAS chaos run aborted: %v", kind, err)
	}
	if err := r.mcc.AuditPages(); err != nil {
		t.Fatalf("%v: page accounting broke under RAS: %v", kind, err)
	}
	if err := ob.Verify(); err != nil {
		t.Fatalf("%v: observation audit broke under RAS: %v", kind, err)
	}
	var c fault.Counters
	if inj != nil {
		c = inj.Counters()
	}
	return m, ob, c
}

// counterByPath reads one instrument out of a registry snapshot (0 when
// the path never registered).
func counterByPath(s obs.Snapshot, path string) int64 {
	for _, sm := range s.Samples {
		if sm.Path == path {
			return sm.Value
		}
	}
	return 0
}

// TestRASUnderChaosAllKinds runs the all-faults plan with the default RAS
// policy on every design: the battery holds, the run is deterministic,
// and on the compressing designs the patrol actually worked (pages
// scrubbed, its cost conserved through the degraded component).
func TestRASUnderChaosAllKinds(t *testing.T) {
	for _, kind := range []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC} {
		t.Run(kind.String(), func(t *testing.T) {
			m1, ob, c1 := runRAS(t, kind, chaosPlan(), ras.Default())
			m2, _, c2 := runRAS(t, kind, chaosPlan(), ras.Default())
			if m1 != m2 || c1 != c2 {
				t.Errorf("same plan+policy, different results:\n%+v %v\n%+v %v", m1, c1, m2, c2)
			}
			reg := ob.Reg.Snapshot()
			p := "mc." + kind.String() + "."
			if kind == mc.OSInspired || kind == mc.TMCC {
				if counterByPath(reg, p+"ras.scrub.pages") == 0 {
					t.Error("patrol scrubbed nothing on a two-level design")
				}
			}
			// Retired frames reconcile: lifetime counter == scoreboard ==
			// heatmap retirement events.
			retired := counterByPath(reg, p+"ras.retired")
			var ev uint64
			for _, g := range ob.Heat.Snapshot().Groups {
				ev += g.Total.Events[heatmap.EvRetired]
			}
			if uint64(retired) != ev {
				t.Errorf("ras.retired = %d but heatmap recorded %d retirement events", retired, ev)
			}
		})
	}
}

// TestQuarantineAccountingPerKind is the end-to-end accounting check for
// forced payload corruption: on the designs with a compressed ML2 tier
// every quarantine shows consistently in the injector's counters, the
// lifetime mc.<kind>.* instruments, the heatmap's churn events, and the
// attr breakdown's verifyRedo component; the designs without ML2 payloads
// must see none of it.
func TestQuarantineAccountingPerKind(t *testing.T) {
	plan := fault.Plan{Seed: 21, Payload: 0.3}
	for _, kind := range []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC} {
		t.Run(kind.String(), func(t *testing.T) {
			_, ob, c := runRAS(t, kind, plan, ras.Config{})
			reg := ob.Reg.Snapshot()
			p := "mc." + kind.String() + "."
			quar := counterByPath(reg, p+"fault.quarantines")
			var ev uint64
			for _, g := range ob.Heat.Snapshot().Groups {
				ev += g.Total.Events[heatmap.EvQuarantine]
			}
			hasML2 := kind == mc.OSInspired || kind == mc.TMCC
			if hasML2 && c.Quarantines == 0 {
				t.Fatalf("payload plan forced no quarantines on %v", kind)
			}
			if !hasML2 && (c.Quarantines != 0 || quar != 0 || ev != 0) {
				t.Fatalf("%v has no ML2 payloads but saw quarantines (inj=%d reg=%d heat=%d)",
					kind, c.Quarantines, quar, ev)
			}
			if uint64(quar) != c.Quarantines {
				t.Errorf("registry quarantines = %d, injector counted %d", quar, c.Quarantines)
			}
			if ev != c.Quarantines {
				t.Errorf("heatmap quarantine events = %d, injector counted %d", ev, c.Quarantines)
			}
			if hasML2 {
				// Each demand-detected quarantine re-reads the payload;
				// that retry must surface in the verifyRedo component.
				var redo int64
				for _, g := range ob.At.Snapshot().Groups {
					for _, cl := range g.Classes {
						redo += cl.CompPS[attr.CVerifyRedo]
					}
				}
				if redo == 0 {
					t.Errorf("%v: quarantines charged no verifyRedo time", kind)
				}
			}
		})
	}
}
