package exp

import (
	"errors"
	"fmt"
	"testing"

	"tmcc/internal/mc"
	"tmcc/internal/sim"
)

// TestIsoBudgetFailsOnNonCapacityProbeError: in the Table IV budget
// search, a probe that exhausts capacity is an infeasible budget and the
// search bisects upward past it; any other probe error (a crashed run, a
// bad configuration) fails the search instead of silently becoming a
// wrong table entry.
func TestIsoBudgetFailsOnNonCapacityProbeError(t *testing.T) {
	const colB, target = 900, 1.0
	// Budgets below 600 exhaust capacity; at or above it the run meets
	// the target.
	capacity := func(budget uint64) (sim.Metrics, error) {
		if budget < 600 {
			return sim.Metrics{}, fmt.Errorf("probe at %d: %w", budget, mc.ErrCapacityExhausted)
		}
		return sim.Metrics{Stores: 2, Cycles: 1}, nil
	}
	best, err := isoBudget(colB, target, capacity)
	if err != nil {
		t.Fatalf("capacity-exhausted probes failed the search: %v", err)
	}
	if best < 600 || best >= colB {
		t.Errorf("search settled on %d, want a feasible budget in [600, %d)", best, colB)
	}

	crash := errors.New("engine: run canneal/tmcc panicked")
	calls := 0
	_, err = isoBudget(colB, target, func(budget uint64) (sim.Metrics, error) {
		if calls++; calls == 2 {
			return sim.Metrics{}, crash
		}
		return capacity(budget)
	})
	if !errors.Is(err, crash) {
		t.Fatalf("search over a crashing probe returned %v, want the probe's error", err)
	}
	if calls != 2 {
		t.Errorf("search kept probing after the crash: %d probes", calls)
	}
}
