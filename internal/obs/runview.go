package obs

import (
	"fmt"
	"sort"

	"tmcc/internal/check"
	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// RunView is one run's window into the observer's per-run recorders: the
// windowed timeline (Observer.TL) and the address-space heatmap
// (Observer.Heat). The run threads the view's Observer through its
// components, so both surfaces reach every site the way counters do.
//
// Timeline side: the derived observer carries a PRIVATE registry and attr
// recorder, so every existing bump site feeds the timeline unchanged and
// per-run deltas are exact while other runs execute concurrently. At each
// window edge the view folds the delta of its private sinks into the
// shared recorder and merges the same delta into the shared registry and
// attr recorder, so the window deltas of every counter, histogram bucket
// and attr component sum to the lifetime value by construction.
//
// Heat side: heat facts carry a physical page number that registry paths
// cannot express, so components reach the view through (*Observer).View
// and stamp it directly. Accumulation is run-private and lock-free: a
// region map plus an independently accumulated total, so Σ regions ==
// total stays a real cross-check downstream.
//
// Close folds everything not yet folded, every time it is called, so a
// runner that keeps going after Run still conserves. A nil *RunView
// ignores every operation, keeping the flags-off path one branch per site.
type RunView struct {
	bench  string
	kind   string
	shared *Observer // lifetime sinks
	ob     *Observer // what the run threads through its components

	// Timeline side; tl is nil when the timeline is off.
	tl       *timeline.Recorder
	reg      *Registry      // run-private registry
	at       *attr.Recorder // run-private attr recorder
	prevReg  Snapshot
	prevAttr attr.Snapshot
	tlEdge   timeline.Edge

	// Heat side; heat is nil when the heatmap is off.
	heat     *heatmap.Recorder
	regions  map[uint64]*heatmap.Delta
	total    heatmap.Delta
	heatEdge timeline.Edge
}

// RunView derives the per-run view for one (benchmark, kind); nil unless
// the observer arms a timeline or a heatmap, so the flags-off path stays
// one nil check.
func (o *Observer) RunView(bench, kind string) *RunView {
	if o == nil || (o.TL == nil && o.Heat == nil) {
		return nil
	}
	v := &RunView{bench: bench, kind: kind, shared: o}
	// The derived observer shares the tracer (spans carry simulated
	// timestamps and need no windowing) and carries no recorders: views
	// do not nest.
	v.ob = &Observer{Reg: o.Reg, Tr: o.Tr, At: o.At, view: v}
	if o.TL != nil {
		v.tl = o.TL
		v.reg, v.at = NewRegistry(), attr.NewRecorder()
		v.ob.Reg, v.ob.At = v.reg, v.at
		v.tlEdge = timeline.NewEdge(o.TL.Width())
	}
	if o.Heat != nil {
		v.heat = o.Heat
		v.regions = map[uint64]*heatmap.Delta{}
		v.heatEdge = timeline.NewEdge(o.Heat.Width())
	}
	return v
}

// View returns the run view an observer derived by RunView carries; nil
// for any other observer.
func (o *Observer) View() *RunView {
	if o == nil {
		return nil
	}
	return o.view
}

// Observer returns the derived observer the run must thread through its
// components.
func (v *RunView) Observer() *Observer { return v.ob }

// Advance rolls both clocks to the windows holding simulated time now.
// Leaving a timeline window flushes its deltas; an event exactly on a
// window edge maps to the earlier window (timeline.Edge). It reports true
// when a heatmap residency edge was crossed: the caller then sweeps
// current page residency into the view exactly once. Nil-safe (false).
func (v *RunView) Advance(now config.Time) bool {
	if v == nil {
		return false
	}
	if win := v.tlEdge.Start(); v.tl != nil && v.tlEdge.Cross(now) {
		v.flush(win)
	}
	return v.heat != nil && v.heatEdge.Cross(now)
}

// Close flushes the current partial timeline window and folds the heat
// accumulated since the last Close into the shared recorder. Repeatable
// and nil-safe: Run calls it at the end of every run.
func (v *RunView) Close() {
	if v == nil {
		return
	}
	if v.tl != nil {
		v.flush(v.tlEdge.Start())
	}
	if v.heat != nil {
		v.foldHeat()
	}
}

// flush diffs the private sinks against their previous snapshots, folds
// the delta into the shared timeline under window win, and merges it into
// the shared registry and attr recorder.
func (v *RunView) flush(win int64) {
	curReg := v.reg.Snapshot()
	curAttr := v.at.Snapshot()
	var d timeline.Delta
	// lifetime is what the window adds to the shared registry: every
	// instrument that changed, plus every one not seen before, so paths
	// registered but never bumped still reach the lifetime snapshot.
	var lifetime Snapshot

	// Registry deltas: both snapshots sort by path and the registry only
	// grows, so the previous snapshot's samples are a prefix-merge of the
	// current one's — one linear two-pointer walk finds each sample's
	// predecessor (none when the instrument appeared this window).
	prev := v.prevReg.Samples
	j := 0
	for _, cur := range curReg.Samples {
		for j < len(prev) && prev[j].Path < cur.Path {
			j++
		}
		seen := j < len(prev) && prev[j].Path == cur.Path
		delta := cur
		if seen {
			var err error
			if delta, err = cur.Sub(prev[j]); err != nil {
				panic(fmt.Sprintf("obs: timeline flush: %v", err))
			}
		}
		switch cur.Kind {
		case "gauge":
			// Gauges are levels, not flows: per-window deltas of a
			// last-writer-wins value are meaningless, so gauges stay
			// lifetime-only.
			if !seen || delta.Value != 0 {
				lifetime.Samples = append(lifetime.Samples, cur)
			}
			continue
		case "counter":
			if delta.Value != 0 {
				d.Counters = append(d.Counters, timeline.CounterDelta{Path: cur.Path, Delta: uint64(delta.Value)})
			}
		case "histogram":
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
		if !seen || delta.Value != 0 || delta.Count != 0 {
			lifetime.Samples = append(lifetime.Samples, delta)
		}
	}

	// Attr deltas: the run records only into its own (benchmark, kind)
	// group, so the private snapshot holds at most that one group.
	var classes []attr.ClassSnapshot
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
			classes = append(classes, attr.ClassSnapshot{Class: cs.Class, Count: ad.Count, TotalPS: ad.TotalPS, CompPS: ad.CompPS})
		}
	}

	if err := v.tl.Add(v.bench, v.kind, win, &d); err != nil {
		panic(fmt.Sprintf("obs: timeline flush: %v", err))
	}
	if err := v.shared.Reg.Merge(lifetime); err != nil {
		panic(fmt.Sprintf("obs: timeline flush: %v", err))
	}
	if len(classes) > 0 {
		delta := attr.Snapshot{Groups: []attr.GroupSnapshot{{Benchmark: v.bench, Kind: v.kind, Classes: classes}}}
		if err := v.shared.At.Merge(delta); err != nil {
			panic(fmt.Sprintf("obs: timeline flush: %v", err))
		}
	}
	v.prevReg, v.prevAttr = curReg, curAttr
}

// foldHeat folds the regions and the independently accumulated total into
// the shared recorder, in ascending region order, then starts both afresh.
func (v *RunView) foldHeat() {
	if check.Enabled {
		// Private conservation audit: the region map and the total are two
		// independent accumulation paths over the same facts, so they must
		// agree before either reaches the shared recorder. Sweeps is a
		// group-level fact accumulated only on the total.
		var sum heatmap.Delta
		for _, d := range v.regions {
			sum.Fold(d)
		}
		sum.Sweeps = v.total.Sweeps
		check.Assert(sum == v.total,
			"heatmap: %s/%s: region deltas disagree with run total at close", v.bench, v.kind)
	}
	keys := make([]uint64, 0, len(v.regions))
	for r := range v.regions {
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, r := range keys {
		v.heat.Add(v.bench, v.kind, r, v.regions[r])
	}
	v.heat.AddTotal(v.bench, v.kind, &v.total)
	clear(v.regions)
	v.total = heatmap.Delta{}
}

// region returns the accumulator for the region holding ppn.
func (v *RunView) region(ppn uint64) *heatmap.Delta {
	r := v.heat.RegionOf(ppn)
	d, ok := v.regions[r]
	if !ok {
		d = new(heatmap.Delta)
		v.regions[r] = d
	}
	return d
}

// Access stamps one recorded access to ppn with its attribution class.
// The simulator gates calls on its recording flag exactly like attr
// records, so heat conserves against the lifetime attr class counts.
// Nil-safe, like every heat stamp below.
func (v *RunView) Access(ppn uint64, cl attr.Class) {
	if v == nil || v.heat == nil {
		return
	}
	v.region(ppn).Heat[cl]++
	v.total.Heat[cl]++
}

// Event stamps one controller event against ppn's region. Events are
// lifetime facts (not recording-gated), matching the lifetime mc.<kind>.*
// registry counters they conserve against.
func (v *RunView) Event(ppn uint64, ev heatmap.Event) {
	if v == nil || v.heat == nil {
		return
	}
	v.region(ppn).Events[ev]++
	v.total.Events[ev]++
}

// CTE stamps one CTE-cache lookup outcome for ppn's region.
func (v *RunView) CTE(ppn uint64, hit bool) {
	if v == nil || v.heat == nil {
		return
	}
	d := v.region(ppn)
	if hit {
		d.CTEHit++
		v.total.CTEHit++
	} else {
		d.CTEMiss++
		v.total.CTEMiss++
	}
}

// CompressedSize folds one page's compressed size (at the moment it was
// compressed into ML2) into its region's histogram.
func (v *RunView) CompressedSize(ppn uint64, bytes int64) {
	if v == nil || v.heat == nil {
		return
	}
	v.region(ppn).ObserveSize(bytes)
	v.total.ObserveSize(bytes)
}

// Sweep counts one residency sweep and reports whether the heatmap is
// armed, so the sweeping caller gates its page iteration on it.
func (v *RunView) Sweep() bool {
	if v == nil || v.heat == nil {
		return false
	}
	v.total.Sweeps++
	return true
}

// Residency stamps one page as resident in tier during the current sweep.
func (v *RunView) Residency(ppn uint64, tier heatmap.Tier) {
	if v == nil || v.heat == nil {
		return
	}
	v.region(ppn).Res[tier]++
	v.total.Res[tier]++
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
