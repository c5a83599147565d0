package sim

import (
	"reflect"
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
	if err := ob.Verify(); err != nil {
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

// TestTimelineOffLeavesNoTrace: the lifetime registry a timeline-off
// run leaves (its view folds once, at Close) equals a timeline-armed
// run's (folded at every window edge) sample for sample: the run view's
// private sinks merge back without adding, dropping or skewing an
// instrument. A build that fails after deriving the view must merge them
// back too.
func TestTimelineOffLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64 // replaces tightOpts' budget when nonzero
	}{
		{"run", 0},
		{"failed build", 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tightOpts(t)
			fail := tc.budget != 0
			if fail {
				opt.BudgetPages = tc.budget
			}
			lifetime := func(ob *obs.Observer) obs.Snapshot {
				r, err := NewRunnerFull(opt, ob, nil, ras.Config{})
				switch {
				case fail && err == nil:
					t.Fatalf("a budget of %d pages built", tc.budget)
				case !fail && err != nil:
					t.Fatal(err)
				case !fail:
					mustRun(t, r)
				}
				return ob.Reg.Snapshot()
			}
			off, armed := lifetime(obs.New()), lifetime(timelineObserver(config.Microsecond))
			if len(off.Samples) == 0 {
				t.Fatal("timeline-off run registered no instruments")
			}
			if len(off.Samples) != len(armed.Samples) {
				t.Errorf("timeline-off registry holds %d samples, timeline-armed %d", len(off.Samples), len(armed.Samples))
			}
			for i := range off.Samples {
				if i >= len(armed.Samples) {
					break
				}
				if o, a := off.Samples[i], armed.Samples[i]; !reflect.DeepEqual(o, a) {
					t.Errorf("sample %d differs:\noff:   %+v\narmed: %+v", i, o, a)
				}
			}
		})
	}
}
