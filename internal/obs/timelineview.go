package obs

import (
	"fmt"

	"tmcc/internal/check"
	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/timeline"
)

// TimelineView is one run's window into the timeline recorder. The view
// hands the run a PRIVATE registry and attr recorder (via Observer), so
// every existing bump site — mc.<kind>.* counters, sim.* counters, the
// ML2 decompress histogram, codec counters, attr groups — feeds the
// timeline without changing a line at the site, and per-run deltas are
// exact even while other runs execute concurrently. At each window edge
// the view diffs cumulative snapshots of its private sinks and folds the
// delta into the shared recorder; at Close it folds the final partial
// window and merges the private lifetime totals back into the shared
// registry and attr recorder.
//
// That merge is what makes the conservation invariant exact by
// construction: for every counter, histogram bucket, and attr component
// that appears in the timeline, the sum of all window deltas equals the
// lifetime value — both are sums of the same per-run private totals.
//
// Advance is the only method on a hot path; it costs one division and
// one compare per call (the simulator calls it once per 64-access
// batch), and allocates only when a window edge has actually been
// crossed. A nil *TimelineView ignores every operation.
type TimelineView struct {
	rec    *timeline.Recorder
	bench  string
	kind   string
	reg    *Registry      // run-private registry
	at     *attr.Recorder // run-private attr recorder
	shared *Observer      // lifetime sinks, merged into at Close

	prevReg  Snapshot
	prevAttr attr.Snapshot
	edge     timeline.Edge
	closed   bool
}

// TimelineView derives a per-run view for one (benchmark, kind); nil
// when the observer carries no timeline recorder, so the flags-off path
// stays one nil check.
func (o *Observer) TimelineView(bench, kind string) *TimelineView {
	if o == nil || o.TL == nil {
		return nil
	}
	return &TimelineView{
		rec:    o.TL,
		bench:  bench,
		kind:   kind,
		reg:    NewRegistry(),
		at:     attr.NewRecorder(),
		shared: o,
		edge:   timeline.NewEdge(o.TL.Width()),
	}
}

// Observer returns the derived observer the run must thread through its
// components: private registry and attr recorder, the shared tracer
// (spans carry simulated timestamps and need no windowing), and no
// timeline recorder (views do not nest).
func (v *TimelineView) Observer() *Observer {
	return &Observer{Reg: v.reg, Tr: v.shared.Tr, At: v.at}
}

// Advance rolls the view to the window holding simulated time now,
// flushing the accumulated deltas of the window being left. An event
// exactly on a window edge maps to the earlier window, so no flush
// happens until the edge is strictly passed (timeline.Edge). Nil-safe.
func (v *TimelineView) Advance(now config.Time) {
	if v == nil {
		return
	}
	if win := v.edge.Start(); v.edge.Cross(now) {
		v.flush(win)
	}
}

// Close flushes the final partial window and merges the run's private
// lifetime totals into the shared registry and attr recorder. Idempotent
// and nil-safe; runs call it exactly once, at the end of Run.
func (v *TimelineView) Close() {
	if v == nil || v.closed {
		return
	}
	v.closed = true
	v.flush(v.edge.Start())
	if err := v.shared.Reg.Merge(v.reg.Snapshot()); err != nil {
		panic(fmt.Sprintf("obs: timeline close: %v", err))
	}
	if err := v.shared.At.Merge(v.at.Snapshot()); err != nil {
		panic(fmt.Sprintf("obs: timeline close: %v", err))
	}
}

// flush diffs the private sinks against their previous snapshots and
// folds the delta into the shared recorder under window win.
func (v *TimelineView) flush(win int64) {
	curReg := v.reg.Snapshot()
	curAttr := v.at.Snapshot()
	var d timeline.Delta

	// Registry deltas: both snapshots sort by path and the registry only
	// grows, so the previous snapshot's samples are a prefix-merge of the
	// current one's — one linear two-pointer walk finds each sample's
	// predecessor (zero when the instrument appeared this window).
	prev := v.prevReg.Samples
	j := 0
	for _, cur := range curReg.Samples {
		for j < len(prev) && prev[j].Path < cur.Path {
			j++
		}
		switch cur.Kind {
		case "gauge":
			// Gauges are levels, not flows: per-window deltas of a
			// last-writer-wins value are meaningless, so gauges stay
			// lifetime-only.
			continue
		case "counter":
			delta := cur
			if j < len(prev) && prev[j].Path == cur.Path {
				var err error
				if delta, err = cur.Sub(prev[j]); err != nil {
					panic(fmt.Sprintf("obs: timeline flush: %v", err))
				}
			}
			if delta.Value != 0 {
				d.Counters = append(d.Counters, timeline.CounterDelta{Path: cur.Path, Delta: uint64(delta.Value)})
			}
		case "histogram":
			delta := cur
			if j < len(prev) && prev[j].Path == cur.Path {
				var err error
				if delta, err = cur.Sub(prev[j]); err != nil {
					panic(fmt.Sprintf("obs: timeline flush: %v", err))
				}
			}
			if delta.Count != 0 {
				d.Hists = append(d.Hists, timeline.HistDelta{
					Path:   cur.Path,
					Count:  delta.Count,
					Sum:    delta.Sum,
					Bounds: delta.Bounds,
					Counts: delta.Counts,
				})
			}
		}
	}

	// Attr deltas: the run records only into its own (benchmark, kind)
	// group, so the private snapshot holds at most that one group.
	for _, gs := range curAttr.Groups {
		if gs.Benchmark != v.bench || gs.Kind != v.kind {
			continue
		}
		for _, cs := range gs.Classes {
			cl, ok := attr.ClassByName(cs.Class)
			if !ok {
				panic(fmt.Sprintf("obs: timeline flush: unknown attr class %q", cs.Class))
			}
			ad := timeline.AttrDelta{
				Class:   cl,
				Count:   cs.Count,
				TotalPS: cs.TotalPS,
				CompPS:  append([]int64(nil), cs.CompPS...),
			}
			if pc, ok := attrClass(v.prevAttr, v.bench, v.kind, cs.Class); ok {
				ad.Count -= pc.Count
				ad.TotalPS -= pc.TotalPS
				for c := range ad.CompPS {
					ad.CompPS[c] -= pc.CompPS[c]
				}
			}
			if ad.Count == 0 && ad.TotalPS == 0 {
				continue
			}
			if check.Enabled {
				// Per-window conservation audit: every access lands whole
				// in one window (records happen between flushes on the
				// run's own thread), so window deltas of a conserved
				// aggregate must conserve too.
				check.Assert(ad.Conserved(),
					"timeline: %s/%s window %d class %s: window delta violates attr conservation",
					v.bench, v.kind, win, cs.Class)
			}
			d.Attr = append(d.Attr, ad)
		}
	}

	if err := v.rec.Add(v.bench, v.kind, win, &d); err != nil {
		panic(fmt.Sprintf("obs: timeline flush: %v", err))
	}
	v.prevReg, v.prevAttr = curReg, curAttr
}

// attrClass finds one (benchmark, kind) class aggregate in an attr
// snapshot.
func attrClass(s attr.Snapshot, bench, kind, class string) (attr.ClassSnapshot, bool) {
	for _, gs := range s.Groups {
		if gs.Benchmark != bench || gs.Kind != kind {
			continue
		}
		for _, cs := range gs.Classes {
			if cs.Class == class {
				return cs, true
			}
		}
	}
	return attr.ClassSnapshot{}, false
}

// VerifyTimeline checks the timeline conservation invariant against the
// lifetime sinks: for every counter and histogram path present in the
// timeline, the sum of all window deltas (across every group) must equal
// the lifetime registry value exactly, and for every (benchmark, kind)
// attr class, the summed window deltas must equal the lifetime attr
// aggregate component by component. Paths that never appear in the
// timeline (engine.* counters bumped outside runs, gauges) are exempt by
// construction. The cmd layer runs this before exporting a timeline, the
// same way attr snapshots re-verify Conserved before export.
func VerifyTimeline(tl timeline.Snapshot, reg Snapshot, at attr.Snapshot) error {
	bypath := make(map[string]Sample, len(reg.Samples))
	for _, sm := range reg.Samples {
		bypath[sm.Path] = sm
	}
	for path, total := range tl.CounterTotals() {
		sm, ok := bypath[path]
		if !ok || sm.Kind != "counter" {
			return fmt.Errorf("obs: timeline counter %q missing from lifetime registry", path)
		}
		if uint64(sm.Value) != total {
			return fmt.Errorf("obs: timeline counter %q: window deltas sum to %d, lifetime %d", path, total, sm.Value)
		}
	}
	hists, err := tl.HistTotals()
	if err != nil {
		return err
	}
	for path, total := range hists {
		sm, ok := bypath[path]
		if !ok || sm.Kind != "histogram" {
			return fmt.Errorf("obs: timeline histogram %q missing from lifetime registry", path)
		}
		if sm.Count != total.Count || sm.Sum != total.Sum {
			return fmt.Errorf("obs: timeline histogram %q: window deltas sum to count=%d sum=%d, lifetime count=%d sum=%d",
				path, total.Count, total.Sum, sm.Count, sm.Sum)
		}
		if len(sm.Counts) != len(total.Counts) {
			return fmt.Errorf("obs: timeline histogram %q bucket-shape mismatch vs lifetime", path)
		}
		for i := range sm.Counts {
			if sm.Counts[i] != total.Counts[i] {
				return fmt.Errorf("obs: timeline histogram %q bucket %d: window deltas sum to %d, lifetime %d",
					path, i, total.Counts[i], sm.Counts[i])
			}
		}
	}
	for _, g := range tl.Groups {
		totals := g.AttrTotals()
		for cl := attr.Class(0); cl < attr.NumClasses; cl++ {
			t := totals[cl]
			if t.Count == 0 && t.TotalPS == 0 {
				continue
			}
			lc, ok := attrClass(at, g.Benchmark, g.Kind, cl.String())
			if !ok {
				return fmt.Errorf("obs: timeline attr %s/%s %s missing from lifetime recorder", g.Benchmark, g.Kind, cl)
			}
			if lc.Count != t.Count || lc.TotalPS != t.TotalPS {
				return fmt.Errorf("obs: timeline attr %s/%s %s: window deltas sum to count=%d total=%d, lifetime count=%d total=%d",
					g.Benchmark, g.Kind, cl, t.Count, t.TotalPS, lc.Count, lc.TotalPS)
			}
			for c := range t.CompPS {
				if lc.CompPS[c] != t.CompPS[c] {
					return fmt.Errorf("obs: timeline attr %s/%s %s component %s: window deltas sum to %d, lifetime %d",
						g.Benchmark, g.Kind, cl, attr.Component(c), t.CompPS[c], lc.CompPS[c])
				}
			}
		}
	}
	return nil
}
