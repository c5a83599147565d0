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
// register each once (Count, CountFunc; Level for a gauge). The derived
// observer has no registry of its own: the counters, gauges and
// histograms it hands out are run-private, each paired with the shared
// instrument of its path, created at registration so a path never bumped
// still shows in the lifetime snapshot. Every flush (each timeline window
// edge, Rebase and Close) drains the run on its own goroutine: each
// count's growth since the last flush and everything a private counter or
// histogram gathered moves into the shared instrument and, with TL
// armed, into the window's delta. Gauges reach the shared registry at
// Close only, which keeps the larger value.
//
// Timeline side: with TL armed the derived observer also carries a
// private attr recorder, whose group each flush drains into the shared
// one beside the window's delta, so the window deltas of every counter,
// histogram bucket and attr component sum to the lifetime value by
// construction.
//
// Heat side: heat facts carry a physical page number that registry paths
// cannot express, so components reach the view through (*Observer).View
// and stamp it directly. Accumulation is run-private and lock-free: one
// accumulator per touched region plus an independently accumulated total,
// so Σ regions == total stays a real cross-check downstream.
//
// Close flushes everything not yet flushed, every time it is called, so a
// runner that keeps going after Run still conserves. A nil *RunView
// ignores every operation, keeping the flags-off path one branch per site.
type RunView struct {
	bench  string
	kind   string
	shared *Observer // lifetime sinks
	ob     *Observer // what the run threads through its components

	// Counts, each beside the shared instrument it drains into.
	tallies []tally
	hists   []hist
	levels  []level

	// Timeline side; tl is nil when the timeline is off. own is the
	// run's group in its private attr recorder, to the shared group.
	tl     *timeline.Recorder
	own    *attr.Group
	to     *attr.Group
	tlEdge timeline.Edge

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

// tally is one registered per-run count: take returns what it counted
// since the last take.
type tally struct {
	path string
	take func() uint64
	to   *Counter
}

// hist is one run-private histogram the derived observer handed out.
type hist struct {
	path string
	own  *Histogram
	to   *Histogram
}

// level is one registered per-run gauge, sampled through read.
type level struct {
	read func() int64
	to   *Gauge
}

// RunView derives the per-run view for one (benchmark, kind); nil for a
// nil observer.
func (o *Observer) RunView(bench, kind string) *RunView {
	if o == nil {
		return nil
	}
	v := &RunView{bench: bench, kind: kind, shared: o}
	// The derived observer shares the tracer (spans carry simulated
	// timestamps and need no windowing) and carries no recorders: views
	// do not nest.
	v.ob = &Observer{Tr: o.Tr, At: o.At, view: v}
	if o.TL != nil {
		v.tl = o.TL
		v.ob.At = attr.NewRecorder()
		v.own = v.ob.At.Group(bench, kind)
		v.to = o.At.Group(bench, kind)
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
// which must not decrease between flushes except across Rebase. Nil-safe.
func (v *RunView) CountFunc(path string, read func() uint64) {
	if v == nil {
		return
	}
	last := read()
	v.tallies = append(v.tallies, tally{path: path, to: v.shared.Reg.Counter(path), take: func() uint64 {
		n := read()
		d := n - last
		last = n
		return d
	}})
}

// Level registers the per-run gauge at path, sampled through read at
// Close. Nil-safe.
func (v *RunView) Level(path string, read func() int64) {
	if v == nil {
		return
	}
	v.levels = append(v.levels, level{read: read, to: v.shared.Reg.Gauge(path)})
}

// counter, gauge and histogram hand the derived observer a run-private
// instrument at path; each registration gets its own, so several add up.
func (v *RunView) counter(path string) *Counter {
	c := new(Counter)
	v.tallies = append(v.tallies, tally{path: path, to: v.shared.Reg.Counter(path), take: c.drain})
	return c
}

func (v *RunView) gauge(path string) *Gauge {
	g := new(Gauge)
	v.Level(path, g.Value)
	return g
}

func (v *RunView) histogram(path string, bounds []int64) *Histogram {
	to := v.shared.Reg.Histogram(path, bounds)
	if to != nil {
		bounds = to.bounds // the first registration's bounds win
	}
	h := newHistogram(path, bounds)
	v.hists = append(v.hists, hist{path: path, own: h, to: to})
	return h
}

// Rebase flushes the run into the current window, runs reset (which
// may zero the fields some counts read, as the end of warmup does) and
// takes the values after it as the new baseline, so a count stays the
// lifetime total of its events. With a nil view it only runs reset.
func (v *RunView) Rebase(reset func()) {
	if v == nil {
		reset()
		return
	}
	v.flush(v.tlEdge.Start(), false)
	reset()
	for _, t := range v.tallies {
		t.take()
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

// Close flushes the counts, samples the gauges, flushes the current
// partial timeline window and folds the heat accumulated since the last
// Close into the shared recorders. Repeatable and nil-safe: Run calls it
// at the end of every run.
func (v *RunView) Close() {
	if v == nil {
		return
	}
	v.flush(v.tlEdge.Start(), true)
	if v.heat != nil {
		v.foldHeat()
	}
}

// flush drains what the run counted since the last flush into the shared
// registry and attr group and, with the timeline armed, into window win.
// Gauges are levels, not flows, so they reach neither the timeline nor,
// before closing, the shared registry.
func (v *RunView) flush(win int64, closing bool) {
	var d timeline.Delta
	for _, t := range v.tallies {
		if n := t.take(); n != 0 {
			t.to.Add(n)
			d.Counters = append(d.Counters, timeline.CounterDelta{Path: t.path, Delta: n})
		}
	}
	for _, h := range v.hists {
		if hd := h.own.drain(h.to); hd.Count != 0 {
			hd.Path = h.path
			d.Hists = append(d.Hists, hd)
		}
	}
	if closing {
		for _, l := range v.levels {
			l.to.raise(l.read())
		}
	}
	if v.tl == nil {
		return
	}
	for cl := attr.Class(0); cl < attr.NumClasses; cl++ {
		cs := v.to.Drain(v.own, cl)
		if cs.Count == 0 {
			continue
		}
		ad := timeline.AttrDelta{Class: cl, Count: cs.Count, TotalPS: cs.TotalPS, CompPS: cs.CompPS}
		if check.Enabled {
			// Per-window conservation audit: every access lands whole
			// in one window (records happen between flushes on the
			// run's own thread), so window deltas of a conserved
			// aggregate must conserve too.
			check.Assert(ad.Conserved(),
				"timeline: %s/%s window %d class %s: window delta violates attr conservation",
				v.bench, v.kind, win, cl)
		}
		d.Attr = append(d.Attr, ad)
	}
	if err := v.tl.Add(v.bench, v.kind, win, &d); err != nil {
		panic(fmt.Sprintf("obs: timeline flush: %v", err))
	}
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
