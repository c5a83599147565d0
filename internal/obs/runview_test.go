package obs

import (
	"slices"
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// record puts one synthetic conserved access into the view's attr group.
func record(v *RunView, bench, kind string, walk, overlap int64) {
	var a attr.Access
	a.Class = attr.ClassDemand
	a.Add(attr.CWalk, config.Picos(walk))
	a.Add(attr.CCTEParallel, config.Picos(2*overlap))
	a.Add(attr.COverlap, config.Picos(overlap))
	a.Total = a.AttributedSum()
	v.Observer().At.Group(bench, kind).Record(&a)
}

// TestTimelineViewWindowing drives a run view's timeline side through
// three windows with synthetic bumps and checks window assignment (edge
// rule included), the lifetime merge, VerifyTimeline's exact
// conservation, and that conservation survives a view that keeps going
// after Close — the unit-level version of what the sim wires per run.
func TestTimelineViewWindowing(t *testing.T) {
	shared := New() // Reg + Tr + At
	shared.TL = timeline.NewRecorder(config.Microsecond)
	v := shared.RunView("canneal", "tmcc")
	if v == nil {
		t.Fatal("RunView returned nil with TL armed")
	}
	ob := v.Observer()
	if ob.Reg != nil || ob.At == shared.At {
		t.Fatal("derived observer shares lifetime sinks; deltas would double-count")
	}
	if ob.TL != nil || ob.Heat != nil {
		t.Fatal("derived observer carries a recorder; views must not nest")
	}
	if ob.View() != v {
		t.Fatal("derived observer does not carry its view")
	}

	c := ob.Counter("test.hits")
	h := ob.Histogram("test.lat", []int64{100})
	ob.Gauge("test.level").Set(7) // gauges must stay out of windows

	// Window 0: (0, 1us].
	c.Add(3)
	h.Observe(50)
	record(v, "canneal", "tmcc", 1000, 200)
	v.Advance(config.Microsecond) // exactly on the edge: still window 0
	c.Add(2)                      // must still land in window 0
	v.Advance(config.Microsecond + 1)

	// Window 1us: (1us, 2us].
	c.Add(10)
	h.Observe(500)
	record(v, "canneal", "tmcc", 700, 0)
	v.Advance(3*config.Microsecond + 1)

	// Window 3us (window 2us is skipped entirely — empty windows are
	// absent, not zero-filled).
	c.Add(1)
	v.Close()
	v.Close() // nothing new since the last Close: adds nothing

	snap := shared.TL.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("groups = %+v", snap.Groups)
	}
	g := snap.Groups[0]
	if g.Benchmark != "canneal" || g.Kind != "tmcc" {
		t.Fatalf("group identity = %s/%s", g.Benchmark, g.Kind)
	}
	starts := []int64{}
	for _, w := range g.Windows {
		starts = append(starts, w.StartPS)
	}
	wantStarts := []int64{0, int64(config.Microsecond), int64(3 * config.Microsecond)}
	if len(starts) != 3 || starts[0] != wantStarts[0] || starts[1] != wantStarts[1] || starts[2] != wantStarts[2] {
		t.Fatalf("window starts = %v, want %v", starts, wantStarts)
	}

	counterIn := func(w timeline.Window, path string) uint64 {
		for _, cd := range w.Counters {
			if cd.Path == path {
				return cd.Delta
			}
		}
		return 0
	}
	// The edge-time Add(2) belongs to window 0: 3+2.
	if got := counterIn(g.Windows[0], "test.hits"); got != 5 {
		t.Errorf("window 0 test.hits = %d, want 5 (edge bump must land early)", got)
	}
	if got := counterIn(g.Windows[1], "test.hits"); got != 10 {
		t.Errorf("window 1us test.hits = %d, want 10", got)
	}
	if got := counterIn(g.Windows[2], "test.hits"); got != 1 {
		t.Errorf("window 3us test.hits = %d, want 1", got)
	}
	for _, w := range g.Windows {
		for _, cd := range w.Counters {
			if cd.Path == "test.level" {
				t.Error("gauge leaked into the timeline")
			}
		}
	}
	if len(g.Windows[0].Hists) != 1 || g.Windows[0].Hists[0].Count != 1 || g.Windows[0].Hists[0].Sum != 50 {
		t.Errorf("window 0 hists = %+v", g.Windows[0].Hists)
	}
	if len(g.Windows[0].Attr) != 1 || !g.Windows[0].Attr[0].Conserved() {
		t.Errorf("window 0 attr = %+v", g.Windows[0].Attr)
	}

	// Every flush merged its window into the lifetime sinks...
	if s, ok := shared.Reg.Snapshot().Get("test.hits"); !ok || s.Value != 16 {
		t.Errorf("lifetime test.hits = %+v, want 16", s)
	}
	if s, ok := shared.Reg.Snapshot().Get("test.level"); !ok || s.Value != 7 {
		t.Errorf("lifetime test.level = %+v, want the gauge's level 7", s)
	}
	// ...so conservation verifies exactly.
	if err := VerifyTimeline(snap, shared.Reg.Snapshot(), shared.At.Snapshot()); err != nil {
		t.Fatalf("VerifyTimeline: %v", err)
	}

	// A view that keeps going after Close (a runner stepped past Run)
	// keeps conserving: the window Close flushed takes more bumps, later
	// windows flush as usual, and the next Close folds the rest.
	c.Add(4)
	record(v, "canneal", "tmcc", 300, 100)
	v.Advance(5*config.Microsecond + 1)
	c.Add(2)
	v.Close()
	snap = shared.TL.Snapshot()
	if s, ok := shared.Reg.Snapshot().Get("test.hits"); !ok || s.Value != 22 {
		t.Errorf("lifetime test.hits after a second Close = %+v, want 22", s)
	}
	if got := counterIn(snap.Groups[0].Windows[2], "test.hits"); got != 5 {
		t.Errorf("window 3us test.hits = %d, want 5 (reopened after Close)", got)
	}
	if err := VerifyTimeline(snap, shared.Reg.Snapshot(), shared.At.Snapshot()); err != nil {
		t.Fatalf("VerifyTimeline after a second Close: %v", err)
	}

	// And VerifyTimeline actually detects drift: bump the lifetime counter
	// past the windowed sum.
	shared.Reg.Counter("test.hits").Inc()
	err := VerifyTimeline(snap, shared.Reg.Snapshot(), shared.At.Snapshot())
	if err == nil || !strings.Contains(err.Error(), "test.hits") {
		t.Fatalf("VerifyTimeline missed a lifetime/window mismatch: %v", err)
	}
}

// TestHeatmapViewNilPaths: a nil observer derives no view, an observer
// arming neither recorder derives one with no heat side, and a nil view
// (flags off) ignores every operation.
func TestHeatmapViewNilPaths(t *testing.T) {
	var o *Observer
	if o.RunView("b", "k") != nil || o.View() != nil {
		t.Error("nil observer returned a view")
	}
	if New().View() != nil {
		t.Error("a process observer carries a view")
	}
	pv := New().RunView("b", "k")
	if pv == nil || pv.Observer().View() != pv {
		t.Fatal("observer without TL or Heat derived no view")
	}
	pv.Event(1, heatmap.EvML2Read)
	if pv.Advance(config.Millisecond+1) || pv.Sweep() {
		t.Error("view without a heatmap asked for a residency sweep")
	}
	pv.Close()
	var v *RunView
	v.Access(1, attr.ClassDemand)
	v.Event(1, heatmap.EvML2Read)
	v.CTE(1, true)
	v.CompressedSize(1, 100)
	if v.Advance(config.Millisecond + 1) {
		t.Error("nil view advanced")
	}
	if v.Sweep() {
		t.Error("nil view swept")
	}
	v.Residency(1, heatmap.TierML1)
	v.Close()
}

// TestTimelineViewNilPaths: a nil view (timeline off) advances and closes
// inertly, and a timeline-only view drops heat and never asks for a
// residency sweep.
func TestTimelineViewNilPaths(t *testing.T) {
	var v *RunView
	v.Advance(123)
	v.Close()

	o := New()
	o.TL = timeline.NewRecorder(config.Microsecond)
	tv := o.RunView("b", "k")
	if tv == nil {
		t.Fatal("observer with TL derived no view")
	}
	tv.Access(1, attr.ClassDemand)
	tv.Event(1, heatmap.EvML2Read)
	if tv.Advance(config.Millisecond+1) || tv.Sweep() {
		t.Error("timeline-only view asked for a residency sweep")
	}
	tv.Close()
}

// heatAttr records one access of class cl into the group, mirroring what
// the simulator does alongside every RunView.Access.
func heatAttr(g *attr.Group, cl attr.Class) {
	var a attr.Access
	a.Class = cl
	a.Add(attr.CWalk, 100)
	a.Total = 100
	g.Record(&a)
}

// TestHeatmapViewFoldAndVerify drives a run view's heat side like the
// simulator does —
// accesses mirrored into attr, events mirrored into registry counters —
// then checks the folded snapshot's region split and runs the full
// VerifyHeatmap conservation audit on it.
func TestHeatmapViewFoldAndVerify(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(512, 0)
	v := o.RunView("canneal", "tmcc")
	ag := o.AttrGroup("canneal", "tmcc")

	// Three demand accesses straddling a region edge, one writeback.
	for _, ppn := range []uint64{0, 511, 512} {
		v.Access(ppn, attr.ClassDemand)
		heatAttr(ag, attr.ClassDemand)
	}
	v.Access(5, attr.ClassWriteback)
	heatAttr(ag, attr.ClassWriteback)

	// Controller events + CTE locality + sizes, mirrored into the same
	// lifetime instruments mc/ctecache bump.
	for i := 0; i < 2; i++ {
		v.Event(7, heatmap.EvML1ToML2)
		v.CompressedSize(7, 1000)
		o.Reg.Counter("mc.tmcc.ml1.toML2").Inc()
		o.Reg.Histogram("mc.tmcc.ml2.compressedBytes", heatmap.SizeBounds()).Observe(1000)
	}
	v.Event(7, heatmap.EvML2Read)
	o.Reg.Counter("mc.tmcc.ml2.reads").Inc()
	v.CTE(3, true)
	v.CTE(600, false)
	o.Reg.Counter("mc.tmcc.ctecache.hit").Inc()
	o.Reg.Counter("mc.tmcc.ctecache.miss").Inc()

	// Window edge -> one residency sweep (edge semantics: timeline.Edge).
	if !v.Advance(config.Millisecond + 1) {
		t.Fatal("window edge not detected")
	}
	if !v.Sweep() {
		t.Fatal("sweep refused on a heat view")
	}
	v.Residency(0, heatmap.TierML1)
	v.Residency(600, heatmap.TierML2)

	v.Close()
	v.Close() // nothing new since the last Close: must not double anything

	hm := o.Heat.Snapshot()
	if err := VerifyHeatmap(hm, o.Reg.Snapshot(), o.At.Snapshot()); err != nil {
		t.Fatalf("VerifyHeatmap: %v", err)
	}
	if len(hm.Groups) != 1 {
		t.Fatalf("groups = %d", len(hm.Groups))
	}
	g := hm.Groups[0]
	byRegion := map[uint64]heatmap.Delta{}
	for _, r := range g.Regions {
		byRegion[r.Region] = r.Delta
	}
	// Pages 0, 5, 511 fold into region 0; pages 512 and 600 into region 1.
	if d := byRegion[0]; d.Heat[attr.ClassDemand] != 2 || d.Heat[attr.ClassWriteback] != 1 ||
		d.CTEHit != 1 || d.Res[heatmap.TierML1] != 1 ||
		d.Events[heatmap.EvML1ToML2] != 2 || d.SizeCount != 2 || d.SizeSum != 2000 {
		t.Errorf("region 0 wrong: %+v", d)
	}
	if d := byRegion[1]; d.Heat[attr.ClassDemand] != 1 || d.CTEMiss != 1 ||
		d.Res[heatmap.TierML2] != 1 {
		t.Errorf("region 1 wrong: %+v", d)
	}
	if g.Total.Sweeps != 1 {
		t.Errorf("sweeps = %d, want 1", g.Total.Sweeps)
	}
}

// TestHeatmapViewSweep: the end-of-run sweep counts like a sampling edge,
// and a view that keeps going after Close folds its new heat at the next
// Close, so both folds add up.
func TestHeatmapViewSweep(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.RunView("mcf", "tmcc")
	for i := 0; i < 2; i++ {
		if !v.Sweep() {
			t.Fatalf("sweep %d refused", i)
		}
		v.Residency(3, heatmap.TierOverflow)
		v.Close()
	}
	g := o.Heat.Snapshot().Groups[0]
	if g.Total.Sweeps != 2 || g.Total.Res[heatmap.TierOverflow] != 2 {
		t.Errorf("total wrong: %+v", g.Total)
	}
	if len(g.Regions) != 1 || g.Regions[0].Res[heatmap.TierOverflow] != 2 {
		t.Errorf("regions wrong: %+v", g.Regions)
	}
}

// TestHeatmapViewSparseRegions pins the region accumulators' footprint and
// fold: with one-page regions over a wide PPN range, a view holds one
// accumulator per region touched (not per page below the highest one),
// folds them in ascending region order whatever the touch order, and
// releases them at each Close.
func TestHeatmapViewSparseRegions(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(1, 0)
	v := o.RunView("canneal", "tmcc")
	pages := []uint64{1<<20 - 1, 70000, 5, 70000, 1<<20 - 1, 1<<20 - 1}
	for _, ppn := range pages {
		v.Access(ppn, attr.ClassDemand)
	}
	if len(v.deltas) != 3 {
		t.Fatalf("%d accumulators for 3 touched regions", len(v.deltas))
	}
	v.Close()
	if v.deltas != nil || v.regions != nil || v.index != nil {
		t.Fatalf("Close kept accumulators: %d deltas, %d regions, %d index entries",
			len(v.deltas), len(v.regions), len(v.index))
	}
	v.Access(70000, attr.ClassDemand)
	v.Close()
	g := o.Heat.Snapshot().Groups[0]
	want := []struct{ region, n uint64 }{{5, 1}, {70000, 3}, {1<<20 - 1, 3}}
	if len(g.Regions) != len(want) {
		t.Fatalf("regions = %+v", g.Regions)
	}
	for i, w := range want {
		if r := g.Regions[i]; r.Region != w.region || r.Heat[attr.ClassDemand] != w.n {
			t.Errorf("region %d = %d with %d accesses, want %d with %d",
				i, r.Region, r.Heat[attr.ClassDemand], w.region, w.n)
		}
	}
	if g.Total.Heat[attr.ClassDemand] != uint64(len(pages))+1 {
		t.Errorf("total = %d accesses, want %d", g.Total.Heat[attr.ClassDemand], len(pages)+1)
	}
}

// TestRunViewSamplesCounts: counts registered as fields, and the counters
// and histograms the derived observer hands out, drain into the shared
// registry and into the timeline at window edges, at Rebase and at Close;
// several registrations of one path add up, Rebase keeps what was counted
// before a reset zeroed the field, a path never bumped still shows in the
// lifetime snapshot, per-run gauges sampled at Close merge to the largest
// value whatever the order the runs close in, and an observer with no
// registry still conserves attr.
func TestRunViewSamplesCounts(t *testing.T) {
	shared := New()
	shared.TL = timeline.NewRecorder(config.Microsecond)
	v := shared.RunView("canneal", "tmcc")
	var hits, more, level uint64 = 2, 0, 0 // counted before registration: not the run's
	v.Count("test.hits", &hits)
	v.Count("test.hits", &more) // a second tally on the path adds up
	v.CountFunc("test.double", func() uint64 { return 2 * hits })
	v.Level("test.level", func() int64 { return int64(level) })
	ob := v.Observer()
	c := ob.Counter("test.bumps")
	h := ob.Histogram("test.lat", []int64{10})
	ob.Counter("test.idle") // registered, never bumped

	hits, more, level = 5, 1, 9
	c.Add(1)
	h.Observe(3)
	v.Advance(config.Microsecond + 1) // window 0 takes 3+1 hits
	hits += 4
	more += 2
	c.Add(2)
	h.Observe(20)
	v.Rebase(func() { hits, more = 0, 0 }) // window 1us takes 4+2 hits
	hits += 1
	c.Add(4)
	h.Observe(7)
	v.Advance(2*config.Microsecond + 1) // window 1us takes 1 more hit
	c.Add(8)
	h.Observe(50)
	v.Close() // window 2us takes the last bumps, no hit

	reg := shared.Reg.Snapshot()
	for path, want := range map[string]int64{"test.hits": 11, "test.double": 16, "test.level": 9, "test.bumps": 15, "test.idle": 0} {
		if s, ok := reg.Get(path); !ok || s.Value != want {
			t.Errorf("%s = %+v, want %d", path, s, want)
		}
	}
	if s, _ := reg.Get("test.lat"); s.Count != 4 || s.Sum != 80 || s.Counts[0] != 2 || s.Counts[1] != 2 {
		t.Errorf("lifetime test.lat = %+v, want count 4 sum 80 counts [2 2]", s)
	}
	g := shared.TL.Snapshot().Groups[0]
	if len(g.Windows) != 3 {
		t.Fatalf("windows = %+v", g.Windows)
	}
	counterIn := func(w timeline.Window, path string) (got uint64) {
		for _, cd := range w.Counters {
			if cd.Path == path {
				got += cd.Delta
			}
		}
		return got
	}
	lat := []timeline.HistDelta{
		{Count: 1, Sum: 3, Counts: []uint64{1, 0}},
		{Count: 2, Sum: 27, Counts: []uint64{1, 1}},
		{Count: 1, Sum: 50, Counts: []uint64{0, 1}},
	}
	for i, want := range []struct{ hits, bumps uint64 }{{4, 1}, {7, 6}, {0, 8}} {
		w := g.Windows[i]
		if got := counterIn(w, "test.hits"); got != want.hits {
			t.Errorf("window %d test.hits = %d, want %d", i, got, want.hits)
		}
		if got := counterIn(w, "test.bumps"); got != want.bumps {
			t.Errorf("window %d test.bumps = %d, want %d", i, got, want.bumps)
		}
		if got := counterIn(w, "test.idle"); got != 0 {
			t.Errorf("window %d test.idle = %d, want none", i, got)
		}
		if len(w.Hists) != 1 || w.Hists[0].Count != lat[i].Count || w.Hists[0].Sum != lat[i].Sum ||
			w.Hists[0].Counts[0] != lat[i].Counts[0] || w.Hists[0].Counts[1] != lat[i].Counts[1] {
			t.Errorf("window %d hists = %+v, want test.lat %+v", i, w.Hists, lat[i])
		}
	}
	if err := shared.Verify(); err != nil {
		t.Fatal(err)
	}

	// A later run reporting a lower level leaves the gauge at the larger.
	w := shared.RunView("mcf", "tmcc")
	w.Level("test.level", func() int64 { return 4 })
	w.Close()
	if s, _ := shared.Reg.Snapshot().Get("test.level"); s.Value != 9 {
		t.Errorf("test.level = %d after a run reporting 4, want 9", s.Value)
	}

	// No registry (tmccsim -breakdown or -trace alone): the counts drain
	// nowhere and the attr still reaches both the recorder and the windows.
	nr := &Observer{At: attr.NewRecorder(), TL: timeline.NewRecorder(config.Microsecond)}
	nv := nr.RunView("mcf", "tmcc")
	nv.Count("test.hits", &hits)
	nv.Level("test.level", func() int64 { return 1 })
	nob := nv.Observer()
	nob.Counter("test.bumps").Inc()
	nob.Histogram("test.lat", []int64{10}).Observe(1)
	nob.Gauge("test.gauge").Set(1)
	hits++
	record(nv, "mcf", "tmcc", 500, 100)
	nv.Advance(config.Microsecond + 1)
	record(nv, "mcf", "tmcc", 300, 0)
	nv.Close()
	at := nr.At.Snapshot()
	if err := at.Conserved(); err != nil {
		t.Fatal(err)
	}
	if n, total := at.Totals(); n != 2 || total != 900 {
		t.Fatalf("attr totals = %d accesses, %d ps; want 2, 900", n, total)
	}
	tg := nr.TL.Snapshot().Groups[0]
	if len(tg.Windows) != 2 {
		t.Fatalf("windows = %+v", tg.Windows)
	}
	lc, tc := at.Groups[0].Classes[0], tg.AttrTotals()[attr.ClassDemand]
	if tc.Count != lc.Count || tc.TotalPS != lc.TotalPS || !slices.Equal(tc.CompPS, lc.CompPS) {
		t.Errorf("windowed attr %+v, lifetime %+v", tc, lc)
	}
}
