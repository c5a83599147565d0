package obs

import (
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// TestSampleSub pins the delta primitive: counters and gauges subtract
// Value, histograms subtract element-wise, and any mismatch (path, kind,
// bucket shape, bound values) is an error — never a panic, because
// snapshots can come from files.
func TestSampleSub(t *testing.T) {
	a := Sample{Path: "c", Kind: "counter", Value: 10}
	b := Sample{Path: "c", Kind: "counter", Value: 3}
	d, err := a.Sub(b)
	if err != nil || d.Value != 7 {
		t.Fatalf("counter sub = %+v, %v; want Value 7", d, err)
	}

	h1 := Sample{Path: "h", Kind: "histogram", Count: 5, Sum: 100, Bounds: []int64{10, 20}, Counts: []uint64{2, 2, 1}}
	h0 := Sample{Path: "h", Kind: "histogram", Count: 2, Sum: 30, Bounds: []int64{10, 20}, Counts: []uint64{1, 1, 0}}
	d, err = h1.Sub(h0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 3 || d.Sum != 70 || d.Counts[0] != 1 || d.Counts[2] != 1 {
		t.Errorf("histogram sub = %+v", d)
	}

	if _, err := a.Sub(Sample{Path: "other", Kind: "counter"}); err == nil {
		t.Error("path mismatch accepted")
	}
	if _, err := a.Sub(Sample{Path: "c", Kind: "gauge"}); err == nil {
		t.Error("kind mismatch accepted")
	}
	bad := h0
	bad.Bounds = []int64{10}
	bad.Counts = []uint64{1, 1}
	if _, err := h1.Sub(bad); err == nil {
		t.Error("bucket-count mismatch accepted")
	}
	bad = h0
	bad.Bounds = []int64{10, 30}
	if _, err := h1.Sub(bad); err == nil {
		t.Error("bound-value mismatch accepted")
	}
}

// TestRegistryMerge: merging a snapshot adds counters and histogram
// buckets, overwrites gauges, and rejects shape mismatches — the fold
// RunView's timeline flush relies on being lossless.
func TestRegistryMerge(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("c").Add(5)
	dst.Gauge("g").Set(1)
	dst.Histogram("h", []int64{10}).Observe(4)

	src := NewRegistry()
	src.Counter("c").Add(2)
	src.Counter("new").Add(9)
	src.Gauge("g").Set(42)
	src.Histogram("h", []int64{10}).Observe(25) // overflow bucket

	if err := dst.Merge(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap := dst.Snapshot()
	want := map[string]int64{"c": 7, "new": 9, "g": 42}
	for path, v := range want {
		if s, ok := snap.Get(path); !ok || s.Value != v {
			t.Errorf("%s = %+v, want value %d", path, s, v)
		}
	}
	h, _ := snap.Get("h")
	if h.Count != 2 || h.Sum != 29 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged histogram = %+v", h)
	}

	clash := NewRegistry()
	clash.Histogram("h", []int64{10, 20}).Observe(1)
	if err := dst.Merge(clash.Snapshot()); err == nil {
		t.Error("bucket-shape mismatch accepted by Merge")
	}
}

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
	if ob.Reg == shared.Reg || ob.At == shared.At {
		t.Fatal("derived observer shares lifetime sinks; deltas would double-count")
	}
	if ob.TL != nil || ob.Heat != nil {
		t.Fatal("derived observer carries a recorder; views must not nest")
	}
	if ob.View() != v {
		t.Fatal("derived observer does not carry its view")
	}

	c := ob.Reg.Counter("test.hits")
	h := ob.Reg.Histogram("test.lat", []int64{100})
	ob.Reg.Gauge("test.level").Set(7) // gauges must stay out of windows

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

// TestHeatmapViewNilPaths: an observer arming neither recorder derives no
// view, and a nil view (flags off) ignores every operation.
func TestHeatmapViewNilPaths(t *testing.T) {
	var o *Observer
	if o.RunView("b", "k") != nil || o.View() != nil {
		t.Error("nil observer returned a view")
	}
	if New().RunView("b", "k") != nil || New().View() != nil {
		t.Error("observer without TL or Heat returned a view")
	}
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

// TestAttrClassByNameRoundTrip: every class name maps back onto its class
// (the timeline flush depends on the inverse being total), unknown names
// fail.
func TestAttrClassByNameRoundTrip(t *testing.T) {
	for cl := attr.Class(0); cl < attr.NumClasses; cl++ {
		got, ok := attr.ClassByName(cl.String())
		if !ok || got != cl {
			t.Errorf("ClassByName(%q) = %v, %v", cl.String(), got, ok)
		}
	}
	if _, ok := attr.ClassByName("nope"); ok {
		t.Error("unknown class name resolved")
	}
}

// TestAttrRecorderMerge: merging a snapshot adds counts, totals, and
// components; merging twice doubles them (commutative fold).
func TestAttrRecorderMerge(t *testing.T) {
	src := attr.NewRecorder()
	var a attr.Access
	a.Class = attr.ClassDemand
	a.Add(attr.CWalk, 300)
	a.Total = a.AttributedSum()
	src.Group("canneal", "tmcc").Record(&a)
	snap := src.Snapshot()

	dst := attr.NewRecorder()
	if err := dst.Merge(snap); err != nil {
		t.Fatal(err)
	}
	if err := dst.Merge(snap); err != nil {
		t.Fatal(err)
	}
	got := dst.Snapshot()
	if len(got.Groups) != 1 || len(got.Groups[0].Classes) != 1 {
		t.Fatalf("merged snapshot = %+v", got)
	}
	cs := got.Groups[0].Classes[0]
	if cs.Count != 2 || cs.TotalPS != 600 || cs.CompPS[attr.CWalk] != 600 {
		t.Errorf("double merge = %+v, want count 2 total 600", cs)
	}
	if err := got.Conserved(); err != nil {
		t.Errorf("merged snapshot not conserved: %v", err)
	}
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
