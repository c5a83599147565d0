package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/fault"
)

// TestEmptyFaultsPlanIsNoOp pins the -faults no-op contract: whitespace
// specs and parse-clean all-zero plans never arm the engine, and a run
// through an engine "armed" that way is byte-identical to a flags-off run.
func TestEmptyFaultsPlanIsNoOp(t *testing.T) {
	for _, spec := range []string{"", "   ", "\t", "payload=0", "cte=0,stale=0.0"} {
		plan, err := parseFaults(spec, 7)
		if err != nil {
			t.Fatalf("parseFaults(%q): %v", spec, err)
		}
		if plan.Enabled() {
			t.Errorf("spec %q armed the engine", spec)
		}
	}

	cfg := exp.Config{Seed: 42, Quick: true}
	runWith := func(spec string) string {
		plan, err := parseFaults(spec, 7)
		if err != nil {
			t.Fatalf("parseFaults(%q): %v", spec, err)
		}
		eng := engine.New(1)
		eng.SetHooks(engine.Hooks{Faults: plan})
		var sb strings.Builder
		if err := runSingle(&sb, eng, "blackscholes", "tmcc", 0, cfg); err != nil {
			t.Fatalf("runSingle with -faults %q: %v", spec, err)
		}
		return sb.String()
	}
	off, empty := runWith(""), runWith("  payload=0 ")
	if off != empty {
		t.Errorf("empty fault plan perturbed the run:\noff:   %s\nempty: %s", off, empty)
	}

	// A bad spec still reports its diagnostic instead of arming anything.
	if _, err := parseFaults("payload=oops", 7); err == nil {
		t.Error("bad spec parsed")
	}
}

// TestRandomPlanDeterministicAndArmed pins the campaign's plan space: the
// same seed draws the same plan, every draw arms at least one class, and
// the canonical rendering round-trips through ParsePlan.
func TestRandomPlanDeterministicAndArmed(t *testing.T) {
	for i := int64(0); i < 20; i++ {
		p1 := randomPlan(rand.New(rand.NewSource(i)), i)
		p2 := randomPlan(rand.New(rand.NewSource(i)), i)
		if p1 != p2 {
			t.Fatalf("seed %d drew two different plans", i)
		}
		if !p1.Enabled() {
			t.Fatalf("seed %d drew a disabled plan", i)
		}
		rt, err := fault.ParsePlan(p1.String())
		if err != nil {
			t.Fatalf("seed %d plan %q does not re-parse: %v", i, p1, err)
		}
		if rt.String() != p1.String() {
			t.Fatalf("seed %d plan round-trip changed: %q -> %q", i, p1, rt)
		}
	}
}

// TestMinimizePlanIsOneMinimal delta-debugs against a synthetic battery
// (fails iff both cte and payload are armed) and checks the greedy loop
// lands on exactly that pair — 1-minimal, with every bystander clause
// dropped.
func TestMinimizePlanIsOneMinimal(t *testing.T) {
	fails := func(p fault.Plan) bool { return p.CTECorrupt > 0 && p.Payload > 0 }
	p := fault.Plan{
		CTECorrupt: 0.1, CTEStale: 0.2, Payload: 0.3, Spike: 0.4, Busy: 0.5,
		SpikeLatency: fault.DefaultSpikeLatency,
		BusyBackoff:  fault.DefaultBusyBackoff, BusyRetries: 2, BusyChannel: -1,
	}
	min := p
	for changed := true; changed; {
		changed = false
		for _, c := range planClauses {
			trial := min
			c.clear(&trial)
			if trial != min && fails(trial) {
				min = trial
				changed = true
			}
		}
	}
	if !fails(min) {
		t.Fatal("minimization lost the failure")
	}
	if min.CTEStale != 0 || min.Spike != 0 || min.Busy != 0 {
		t.Errorf("bystander clauses survived: %+v", min)
	}
	if min.CTECorrupt == 0 || min.Payload == 0 {
		t.Errorf("load-bearing clauses dropped: %+v", min)
	}
}

// TestCampaignSmoke runs a 2-plan campaign end to end: all plans pass the
// battery on the healthy simulator, no artifact is written, and the exact
// same invocation reproduces the same report.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs full batteries")
	}
	out := filepath.Join(t.TempDir(), "failures.txt")
	var a, b strings.Builder
	if err := runCampaign(&a, 2, 2, 42, out); err != nil {
		t.Fatalf("campaign failed on the healthy simulator: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("clean campaign wrote a failure artifact")
	}
	if err := runCampaign(&b, 2, 1, 42, out); err != nil {
		t.Fatalf("campaign re-run failed: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("campaign report depends on worker count:\n-j2: %s\n-j1: %s", a.String(), b.String())
	}
}
