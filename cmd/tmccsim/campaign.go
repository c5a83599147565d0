package main

// The chaos-campaign harness: tmccsim -campaign N generates N seeded
// random fault plans, pushes each through a fresh engine with the RAS
// layer armed, and verifies the full invariant battery per plan — no
// panics, graceful errors only (capacity exhaustion is the one legal
// failure), attr conservation, and heatmap reconciliation against the
// lifetime registry. A failing plan is delta-debugged down to a
// 1-minimal reproducing plan (greedily dropping armed clauses while the
// failure persists) and written to an artifact together with the exact
// reproduce command (tmccsim -campaign-plan ...).
//
// Everything derives from (-seed, plan index): plan generation uses a
// private RNG per plan, the battery runs a fixed job list through a fresh
// engine, and the engine guarantees -j-independent results — so a
// campaign failure reproduces deterministically at any worker count.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/ras"
	"tmcc/internal/sim"
)

// campaignBenchmark keeps campaign runs small: the smallest spec exercises
// every ML1/ML2/pressure path in seconds, which is what lets CI afford 25
// plans under -race.
const campaignBenchmark = "blackscholes"

// campaignKinds covers the speculating two-level design (every fault class
// reachable, embedded-CTE patrol armed) and the non-speculating one
// (different recovery paths, no embedding).
var campaignKinds = []mc.Kind{mc.TMCC, mc.OSInspired}

// campaignSeedStride spaces the per-plan seeds so neighbouring plans don't
// share low-bit RNG structure.
const campaignSeedStride = 1000003

// randomPlan draws one fault plan from the campaign's plan space: each
// class arms with probability 1/2 at a rate log-uniform in [1e-3, 0.2),
// re-drawing until at least one class is armed so every campaign slot
// tests something.
func randomPlan(rng *rand.Rand, seed int64) fault.Plan {
	for {
		p := fault.Plan{
			Seed:         seed,
			SpikeLatency: fault.DefaultSpikeLatency,
			BusyBackoff:  fault.DefaultBusyBackoff,
			BusyRetries:  1 + rng.Intn(4),
			BusyChannel:  -1,
		}
		rate := func() float64 {
			// Log-uniform: exponent in [-3, -0.7).
			return math.Pow(10, -3+2.3*rng.Float64())
		}
		if rng.Intn(2) == 0 {
			p.CTECorrupt = rate()
		}
		if rng.Intn(2) == 0 {
			p.CTEStale = rate()
		}
		if rng.Intn(2) == 0 {
			p.Payload = rate()
		}
		if rng.Intn(2) == 0 {
			p.Spike = rate()
		}
		if rng.Intn(2) == 0 {
			p.Busy = rate()
		}
		if p.Enabled() {
			return p
		}
	}
}

// runBattery executes the invariant battery for one plan: a fresh engine
// and observer (registry + attr + heatmap), the RAS layer armed with the
// default policy, one run per campaign kind, then the observer's Verify,
// the audit the CLI export runs. A panic fails its run's key exactly once
// (the engine never retries), so the PanicError check below sees every
// one. A nil return means every invariant held.
func runBattery(plan fault.Plan, jobs int, seed int64) error {
	ob := &obs.Observer{
		Reg:  obs.NewRegistry(),
		At:   attr.NewRecorder(),
		Heat: heatmap.NewRecorder(heatmap.DefaultRegionPages, 0),
	}
	eng := engine.New(jobs)
	eng.SetHooks(engine.Hooks{Obs: ob, Faults: plan, RAS: ras.Default()})
	// Campaign batteries always use the CI-sized windows.
	warm, measure := exp.Config{Quick: true}.Windows()
	for _, kind := range campaignKinds {
		_, err := eng.Run(sim.Options{
			Benchmark:       campaignBenchmark,
			Kind:            kind,
			WarmupAccesses:  warm,
			MeasureAccesses: measure,
			Seed:            seed,
		})
		if err != nil {
			var pe *engine.PanicError
			if errors.As(err, &pe) {
				return fmt.Errorf("%v panicked: %w", kind, err)
			}
			if !errors.Is(err, mc.ErrCapacityExhausted) {
				return fmt.Errorf("%v ungraceful error: %w", kind, err)
			}
		}
	}
	return ob.Verify()
}

// planClauses enumerates the removable clauses for minimization, in the
// canonical plan order.
var planClauses = []struct {
	name  string
	clear func(*fault.Plan)
}{
	{"cte", func(p *fault.Plan) { p.CTECorrupt = 0 }},
	{"stale", func(p *fault.Plan) { p.CTEStale = 0 }},
	{"payload", func(p *fault.Plan) { p.Payload = 0 }},
	{"spike", func(p *fault.Plan) { p.Spike = 0 }},
	{"busy", func(p *fault.Plan) { p.Busy = 0 }},
}

// minimizePlan greedily delta-debugs a failing plan: drop one armed clause
// at a time, keep the drop whenever the battery still fails, and repeat
// until a full pass removes nothing. The result is 1-minimal — removing
// any single remaining clause makes the failure disappear.
func minimizePlan(p fault.Plan, jobs int, seed int64) fault.Plan {
	for changed := true; changed; {
		changed = false
		for _, c := range planClauses {
			trial := p
			c.clear(&trial)
			if trial == p {
				continue
			}
			if runBattery(trial, jobs, seed) != nil {
				p = trial
				changed = true
			}
		}
	}
	return p
}

// campaignFailure records one failed plan with its minimized repro.
type campaignFailure struct {
	index    int
	planSeed int64
	plan     fault.Plan
	minimal  fault.Plan
	err      error
}

// runCampaign drives n seeded plans through the battery, minimizes every
// failure, writes the artifact, and returns an error when any plan failed
// (so the CLI exits nonzero).
func runCampaign(w io.Writer, n, jobs int, seed int64, outPath string) error {
	var failures []campaignFailure
	for i := 0; i < n; i++ {
		planSeed := seed + int64(i)*campaignSeedStride
		plan := randomPlan(rand.New(rand.NewSource(planSeed)), planSeed)
		err := runBattery(plan, jobs, seed)
		status := "ok"
		if err != nil {
			min := minimizePlan(plan, jobs, seed)
			failures = append(failures, campaignFailure{i, planSeed, plan, min, err})
			status = "FAIL: " + err.Error()
		}
		fmt.Fprintf(w, "campaign %3d/%d  chaos-seed %-12d  %-64q %s\n",
			i+1, n, planSeed, plan.String(), status)
	}
	if len(failures) == 0 {
		fmt.Fprintf(w, "campaign: %d plans, all invariants held\n", n)
		return nil
	}
	if err := writeCampaignArtifact(outPath, seed, failures); err != nil {
		return err
	}
	return fmt.Errorf("campaign: %d/%d plans violated invariants (minimized repros in %s)",
		len(failures), n, outPath)
}

// writeCampaignArtifact writes the minimized failing plans with exact
// reproduce commands.
func writeCampaignArtifact(path string, seed int64, failures []campaignFailure) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("campaign-out: %w", err)
	}
	defer f.Close()
	for _, c := range failures {
		fmt.Fprintf(f, "# campaign plan %d\n", c.index)
		fmt.Fprintf(f, "error: %v\n", c.err)
		fmt.Fprintf(f, "plan: %s\n", c.plan)
		fmt.Fprintf(f, "minimal: %s\n", c.minimal)
		fmt.Fprintf(f, "reproduce: tmccsim -campaign-plan '%s' -chaos-seed %d -seed %d\n\n",
			c.minimal, c.planSeed, seed)
	}
	return nil
}
