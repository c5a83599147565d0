package obs

import (
	"fmt"
	"slices"

	"tmcc/internal/check"
	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// RunView is one run's window into the observer's sinks: the run's
// counts, the windowed timeline (Observer.TL) and the address-space
// heatmap (Observer.Heat). The run threads the view's Observer through
// its components, so every site reaches all three.
//
// Counts: components keep per-run events in plain uint64 fields and
// register each once (Count, CountFunc; Level for a gauge). The view
// samples them into a PRIVATE registry, beside the histograms the
// components register on the derived observer, so per-run deltas are
// exact while other runs execute concurrently. Counts fold at each
// timeline window edge, at Rebase and at Close, gauges at Close only, and
// each flush merges what changed into the shared registry.
//
// Timeline side: with TL armed the derived observer also carries a
// private attr recorder; each window edge folds the delta of both private
// sinks into the shared timeline and merges the attr delta into the
// shared recorder, so the window deltas of every counter, histogram
// bucket and attr component sum to the lifetime value by construction.
//
// Heat side: heat facts carry a physical page number that registry paths
// cannot express, so components reach the view through (*Observer).View
// and stamp it directly. Accumulation is run-private and lock-free: one
// accumulator per touched region plus an independently accumulated total,
// so Σ regions == total stays a real cross-check downstream.
//
// Close folds everything not yet folded, every time it is called, so a
// runner that keeps going after Run still conserves. A nil *RunView
// ignores every operation, keeping the flags-off path one branch per site.
type RunView struct {
	bench  string
	kind   string
	shared *Observer // lifetime sinks
	ob     *Observer // what the run threads through its components

	// Counts: reg is the run-private registry, prevReg its state at the
	// last flush; levels sample the gauges into it.
	reg     *Registry
	prevReg Snapshot
	tallies []tally
	levels  []func()

	// Timeline side; tl is nil when the timeline is off.
	tl       *timeline.Recorder
	at       *attr.Recorder // run-private attr recorder
	prevAttr attr.Snapshot
	tlEdge   timeline.Edge

	// Heat side; heat is nil when the heatmap is off. A stamp finds its
	// region's accumulator with one load: index[r] is 1 + the position of
	// region r's accumulator in deltas (0 = untouched since the last fold),
	// and index grows on demand. deltas and regions (the region each
	// accumulator belongs to) append in first-touch order, so memory
	// beyond index's int32 per region stays proportional to the regions
	// touched.
	heat     *heatmap.Recorder
	index    []int32
	deltas   []heatmap.Delta
	regions  []uint64
	total    heatmap.Delta
	heatEdge timeline.Edge
}

// tally is one registered per-run count: read returns the component's
// field, c is the private counter it folds into, and last is read's
// value at the previous fold.
type tally struct {
	read func() uint64
	c    *Counter
	last uint64
}

// RunView derives the per-run view for one (benchmark, kind); nil for a
// nil observer.
func (o *Observer) RunView(bench, kind string) *RunView {
	if o == nil {
		return nil
	}
	v := &RunView{bench: bench, kind: kind, shared: o, reg: NewRegistry()}
	// The derived observer shares the tracer (spans carry simulated
	// timestamps and need no windowing) and carries no recorders: views
	// do not nest.
	v.ob = &Observer{Reg: v.reg, Tr: o.Tr, At: o.At, view: v}
	if o.TL != nil {
		v.tl = o.TL
		v.at = attr.NewRecorder()
		v.ob.At = v.at
		v.tlEdge = timeline.NewEdge(o.TL.Width())
	}
	if o.Heat != nil {
		v.heat = o.Heat
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

// Count registers the per-run counter at path, counted in *n; several
// registrations of one path add up. Nil-safe.
func (v *RunView) Count(path string, n *uint64) {
	v.CountFunc(path, func() uint64 { return *n })
}

// CountFunc registers the per-run counter at path, read through read,
// which must not decrease between folds except across Rebase. Nil-safe.
func (v *RunView) CountFunc(path string, read func() uint64) {
	if v == nil {
		return
	}
	v.tallies = append(v.tallies, tally{read: read, c: v.reg.Counter(path), last: read()})
}

// Level registers the per-run gauge at path, sampled through read at
// Close. Nil-safe.
func (v *RunView) Level(path string, read func() int64) {
	if v == nil {
		return
	}
	g := v.reg.Gauge(path)
	v.levels = append(v.levels, func() { g.Set(read()) })
}

// fold adds every count's growth since the last fold to its counter.
func (v *RunView) fold() {
	for i := range v.tallies {
		t := &v.tallies[i]
		n := t.read()
		t.c.Add(n - t.last)
		t.last = n
	}
}

// Rebase folds every count, runs reset (which may zero the fields some
// counts read, as the end of warmup does) and takes the values after it
// as the new baseline, so a count stays the lifetime total of its
// events. With a nil view it only runs reset.
func (v *RunView) Rebase(reset func()) {
	if v == nil {
		reset()
		return
	}
	v.fold()
	reset()
	for i := range v.tallies {
		v.tallies[i].last = v.tallies[i].read()
	}
}

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
		v.flush(win, false)
	}
	return v.heat != nil && v.heatEdge.Cross(now)
}

// Close folds the counts, samples the gauges, flushes the current partial
// timeline window and folds the heat accumulated since the last Close
// into the shared recorders. Repeatable and nil-safe: Run calls it at
// the end of every run.
func (v *RunView) Close() {
	if v == nil {
		return
	}
	v.flush(v.tlEdge.Start(), true)
	if v.heat != nil {
		v.foldHeat()
	}
}

// flush folds the counts and diffs the private sinks against their
// previous snapshots: the delta goes into the shared timeline under
// window win (timeline armed) and into the shared registry and attr
// recorder. Gauges are levels, not flows, so they reach neither the
// timeline nor, before closing, the shared registry.
func (v *RunView) flush(win int64, closing bool) {
	v.fold()
	if closing {
		for _, sample := range v.levels {
			sample()
		}
	}
	curReg := v.reg.Snapshot()
	var d timeline.Delta
	// lifetime is what the flush adds to the shared registry: every
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
				panic(fmt.Sprintf("obs: run view flush: %v", err))
			}
		}
		switch cur.Kind {
		case "gauge":
			if closing {
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
	if err := v.shared.Reg.Merge(lifetime); err != nil {
		panic(fmt.Sprintf("obs: run view flush: %v", err))
	}
	v.prevReg = curReg
	if v.tl == nil {
		return
	}

	// Attr deltas: the run records only into its own (benchmark, kind)
	// group, so the private snapshot holds at most that one group.
	curAttr := v.at.Snapshot()
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
	if len(classes) > 0 {
		delta := attr.Snapshot{Groups: []attr.GroupSnapshot{{Benchmark: v.bench, Kind: v.kind, Classes: classes}}}
		if err := v.shared.At.Merge(delta); err != nil {
			panic(fmt.Sprintf("obs: timeline flush: %v", err))
		}
	}
	v.prevAttr = curAttr
}

// foldHeat folds the regions and the independently accumulated total into
// the shared recorder, in ascending region order, then starts both afresh.
func (v *RunView) foldHeat() {
	if check.Enabled {
		// Private conservation audit: the region accumulators and the
		// total are two independent accumulation paths over the same
		// facts, so they must agree before either reaches the shared
		// recorder. Sweeps is a group-level fact accumulated only on the
		// total.
		var sum heatmap.Delta
		for i := range v.deltas {
			sum.Fold(&v.deltas[i])
		}
		sum.Sweeps = v.total.Sweeps
		check.Assert(sum == v.total,
			"heatmap: %s/%s: region deltas disagree with run total at close", v.bench, v.kind)
	}
	slices.Sort(v.regions)
	for _, r := range v.regions {
		v.heat.Add(v.bench, v.kind, r, &v.deltas[v.index[r]-1])
	}
	v.heat.AddTotal(v.bench, v.kind, &v.total)
	// Close ends the run in the common case, so the accumulators are
	// released rather than kept for a view that keeps going, which
	// regrows them.
	v.index, v.deltas, v.regions = nil, nil, nil
	v.total = heatmap.Delta{}
}

// region returns the accumulator for the region holding ppn. The pointer
// is valid until the next call.
func (v *RunView) region(ppn uint64) *heatmap.Delta {
	r := v.heat.RegionOf(ppn)
	if r >= uint64(len(v.index)) {
		grown := make([]int32, r+r/2+64)
		copy(grown, v.index)
		v.index = grown
	} else if i := v.index[r]; i != 0 {
		return &v.deltas[i-1]
	}
	v.deltas = append(v.deltas, heatmap.Delta{})
	v.regions = append(v.regions, r)
	v.index[r] = int32(len(v.deltas))
	return &v.deltas[len(v.deltas)-1]
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
