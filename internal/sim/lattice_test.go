package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/dram"
	"tmcc/internal/fault"
	"tmcc/internal/ibmdeflate"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/ras"
	"tmcc/internal/workload"
)

// latticeRun is what one side of a lattice point reports: its metrics
// (mc.Stats included), its DRAM and fault counts, and the capacity
// exhaustion that stopped it, if any, with the design's name taken out.
type latticeRun struct {
	m      Metrics
	dram   dram.Stats
	faults fault.Counters
	err    string
}

func runLatticeSide(t *testing.T, opt Options, ob *obs.Observer, inj *fault.Injector, rcfg ras.Config) latticeRun {
	t.Helper()
	var out latticeRun
	r, err := NewRunnerFull(opt, ob, inj, rcfg)
	if err == nil {
		out.m, err = r.Run()
		out.dram = r.mcc.DRAM().Stats
	}
	if err != nil {
		if !errors.Is(err, mc.ErrCapacityExhausted) {
			t.Fatalf("%v: %v", opt.Kind, err)
		}
		out.err = strings.ReplaceAll(err.Error(), opt.Kind.String(), "<design>")
	}
	out.faults = inj.Counters()
	return out
}

// TestDesignLattice pins the design lattice Figure 20 decomposes TMCC's
// gain along: OS-inspired is TMCC with both optimizations off, that is
// with DisableEmbed and the IBM-class ML2 timing in place of the fast
// Deflate's. Every large benchmark at Compresso's budget (Table IV column
// B) and at 85% of it, at seeds 42 and 7, must report the same metrics,
// mc.Stats and dram.Stats on both; canneal at 75% must exhaust capacity
// on both with the same error; and one pair armed with an observer, a
// fault plan under one shared salt and the RAS policies must also report
// the same fault counts.
func TestDesignLattice(t *testing.T) {
	ibm := ibmdeflate.Default()
	half, comp := ibm.HalfPageLatency(config.PageSize), ibm.CompressLatency(config.PageSize)
	corners := func(opt Options) (Options, Options) {
		bare, tmcc := opt, opt
		bare.Kind = mc.OSInspired
		tmcc.Kind, tmcc.DisableEmbed, tmcc.ML2HalfPage, tmcc.ML2Compress = mc.TMCC, true, half, comp
		return bare, tmcc
	}
	check := func(t *testing.T, bare, tmcc latticeRun) {
		t.Helper()
		if bare != tmcc {
			t.Errorf("os-inspired and tmcc with both optimizations off differ:\n%+v\n%+v", bare, tmcc)
		}
	}
	var feasible atomic.Int32
	t.Run("points", func(t *testing.T) {
		for _, seed := range []int64{42, 7} {
			for _, b := range workload.LargeBenchmarks() {
				t.Run(fmt.Sprintf("%s/s%d", b, seed), func(t *testing.T) {
					t.Parallel()
					colB := CompressoBudget(b, seed)
					for _, budget := range []uint64{colB, colB * 85 / 100} {
						bare, tmcc := corners(Options{Benchmark: b, BudgetPages: budget, Seed: seed,
							WarmupAccesses: 20000, MeasureAccesses: 20000})
						a, z := runLatticeSide(t, bare, nil, nil, ras.Config{}), runLatticeSide(t, tmcc, nil, nil, ras.Config{})
						check(t, a, z)
						if a.err == "" {
							feasible.Add(1)
						}
					}
				})
			}
		}
		t.Run("exhausted", func(t *testing.T) {
			t.Parallel()
			bare, tmcc := corners(Options{Benchmark: "canneal", BudgetPages: CompressoBudget("canneal", 42) * 75 / 100,
				Seed: 42, WarmupAccesses: 20000, MeasureAccesses: 20000})
			a, z := runLatticeSide(t, bare, nil, nil, ras.Config{}), runLatticeSide(t, tmcc, nil, nil, ras.Config{})
			check(t, a, z)
			if a.err == "" {
				t.Error("canneal at 75% of column B completed; want capacity exhaustion on both designs")
			}
		})
		t.Run("armed", func(t *testing.T) {
			t.Parallel()
			bare, tmcc := corners(tightOpts(t))
			salt := fault.RunSalt("design-lattice")
			a := runLatticeSide(t, bare, obs.New(), fault.NewInjector(chaosPlan(), salt), ras.Default())
			z := runLatticeSide(t, tmcc, obs.New(), fault.NewInjector(chaosPlan(), salt), ras.Default())
			check(t, a, z)
			if a.err != "" || a.faults.Total() == 0 {
				t.Errorf("armed pair: error %q, %d faults fired; want a completed run with faults", a.err, a.faults.Total())
			}
		})
	})
	if n := feasible.Load(); n == 0 {
		t.Errorf("no lattice point completed a run; the comparison saw nothing")
	}
}
