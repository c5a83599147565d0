package sim

import (
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/timeline"
	"tmcc/internal/ras"
)

// timelineObserver arms every sink plus a timeline recorder with a window
// narrow enough that a quick run crosses many edges.
func timelineObserver(width config.Time) *obs.Observer {
	ob := obs.New()
	ob.TL = timeline.NewRecorder(width)
	return ob
}

// TestTimelineDoesNotPerturbResults extends the layer's core guarantee to
// the windowed path: a run with the timeline armed (private sinks, batch
// Advance, Close merge) returns Metrics identical to an unobserved run.
func TestTimelineDoesNotPerturbResults(t *testing.T) {
	checkHookBundle(t, hookBundle{opt: quickOpts(), kinds: []mc.Kind{mc.Compresso, mc.TMCC},
		ob: func() *obs.Observer { return timelineObserver(config.Microsecond) }, inert: true})
}

// TestTimelineRunConservation is the per-run conservation property: after
// a tight-budget TMCC run with 1us windows, the timeline must span
// multiple windows, every window's attr deltas must conserve, and the
// window deltas must sum exactly to the lifetime registry and attr
// aggregates (VerifyTimeline).
func TestTimelineRunConservation(t *testing.T) {
	ob := timelineObserver(config.Microsecond)
	r, err := NewRunnerFull(tightOpts(t), ob, nil, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, r)

	tl := ob.TL.Snapshot()
	if len(tl.Groups) != 1 {
		t.Fatalf("timeline groups = %d, want 1", len(tl.Groups))
	}
	g := tl.Groups[0]
	if g.Benchmark != "canneal" || g.Kind != "tmcc" {
		t.Fatalf("timeline group = %s/%s", g.Benchmark, g.Kind)
	}
	if len(g.Windows) < 2 {
		t.Fatalf("run produced %d windows at 1us width; widen the fixture", len(g.Windows))
	}
	for _, w := range g.Windows {
		if w.StartPS%int64(config.Microsecond) != 0 {
			t.Errorf("window start %d not aligned to the 1us width", w.StartPS)
		}
		for _, ad := range w.Attr {
			if !ad.Conserved() {
				t.Errorf("window %d class %v violates attr conservation: %+v", w.StartPS, ad.Class, ad)
			}
		}
	}
	if err := obs.VerifyTimeline(tl, ob.Reg.Snapshot(), ob.At.Snapshot()); err != nil {
		t.Fatalf("conservation: %v", err)
	}

	// The windowed series must actually carry the interesting signals, not
	// just exist: CTE cache traffic and demand-class attribution.
	totals := tl.CounterTotals()
	if totals["mc.tmcc.ctecache.hit"]+totals["mc.tmcc.ctecache.miss"] == 0 {
		t.Error("no CTE cache traffic in the timeline")
	}
	at := g.AttrTotals()
	if at[0].Count == 0 {
		t.Error("no demand-class attr deltas in the timeline")
	}
}

// TestTimelineOffLeavesNoTrace: without a recorder the observer is used
// directly (no private sinks, no view), so the registry sees the same
// instruments as before this subsystem existed and no timeline is
// recorded.
func TestTimelineOffLeavesNoTrace(t *testing.T) {
	ob := obs.New()
	r, err := NewRunnerFull(tightOpts(t), ob, nil, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, r)
	if tl := ob.TL.Snapshot(); len(tl.Groups) != 0 || tl.WidthPS != 0 {
		t.Errorf("observer carries a timeline with TL unset: %+v", tl)
	}
}
