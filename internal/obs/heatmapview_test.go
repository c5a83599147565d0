package obs

import (
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
)

// heatAttr records one access of class cl into the group, mirroring what
// the simulator does alongside every HeatmapView.Access.
func heatAttr(g *attr.Group, cl attr.Class) {
	var a attr.Access
	a.Class = cl
	a.Add(attr.CWalk, 100)
	a.Total = 100
	g.Record(&a)
}

func TestHeatmapViewNilPaths(t *testing.T) {
	var o *Observer
	if o.HeatmapView("b", "k") != nil {
		t.Fatal("nil observer returned a view")
	}
	if New().HeatmapView("b", "k") != nil {
		t.Fatal("observer without Heat returned a view")
	}
	var v *HeatmapView
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

// TestHeatmapViewFoldAndVerify drives a view like the simulator does —
// accesses mirrored into attr, events mirrored into registry counters —
// then checks the folded snapshot's region split and runs the full
// VerifyHeatmap conservation audit on it.
func TestHeatmapViewFoldAndVerify(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(512, 0)
	v := o.HeatmapView("canneal", "tmcc")
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
	v.Residency(0, heatmap.TierML1)
	v.Residency(600, heatmap.TierML2)

	v.Close()
	v.Close() // idempotent: the second close must not double anything

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

// TestHeatmapViewSweep: the end-of-run sweep counts like a sampling edge
// and is refused after close.
func TestHeatmapViewSweep(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.HeatmapView("mcf", "tmcc")
	if !v.Sweep() {
		t.Fatal("sweep refused on open view")
	}
	v.Residency(3, heatmap.TierOverflow)
	v.Close()
	if v.Sweep() {
		t.Fatal("sweep allowed after close")
	}
	g := o.Heat.Snapshot().Groups[0]
	if g.Total.Sweeps != 1 || g.Total.Res[heatmap.TierOverflow] != 1 {
		t.Errorf("total wrong: %+v", g.Total)
	}
}

// TestVerifyHeatmapCatchesRegionTotalDrift: a group whose region rows and
// total row disagree must fail the internal invariant.
func TestVerifyHeatmapCatchesRegionTotalDrift(t *testing.T) {
	rec := heatmap.NewRecorder(0, 0)
	var d heatmap.Delta
	d.CTEHit = 3
	rec.Add("canneal", "tmcc", 0, &d)
	d.CTEHit = 2 // total disagrees with the one region
	rec.AddTotal("canneal", "tmcc", &d)
	err := VerifyHeatmap(rec.Snapshot(), Snapshot{}, attr.Snapshot{})
	if err == nil || !strings.Contains(err.Error(), "disagree with group total") {
		t.Fatalf("drift not caught: %v", err)
	}
}

// TestVerifyHeatmapCatchesAttrMismatch: heat that disagrees with the
// lifetime attr class counts must fail.
func TestVerifyHeatmapCatchesAttrMismatch(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.HeatmapView("canneal", "tmcc")
	ag := o.AttrGroup("canneal", "tmcc")
	v.Access(0, attr.ClassDemand)
	heatAttr(ag, attr.ClassDemand)
	heatAttr(ag, attr.ClassDemand) // one extra lifetime record
	v.Close()
	err := VerifyHeatmap(o.Heat.Snapshot(), o.Reg.Snapshot(), o.At.Snapshot())
	if err == nil || !strings.Contains(err.Error(), "lifetime attr count") {
		t.Fatalf("attr mismatch not caught: %v", err)
	}
}

// TestVerifyHeatmapCatchesMissingInstrument: a nonzero heatmap event with
// no matching registry counter means a recording site bypassed the
// lifetime instruments — an error, not a skip.
func TestVerifyHeatmapCatchesMissingInstrument(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.HeatmapView("canneal", "tmcc")
	v.Event(0, heatmap.EvEmergency)
	v.Close()
	err := VerifyHeatmap(o.Heat.Snapshot(), o.Reg.Snapshot(), attr.Snapshot{})
	if err == nil || !strings.Contains(err.Error(), "missing from lifetime registry") {
		t.Fatalf("missing instrument not caught: %v", err)
	}
}

// TestVerifyHeatmapCatchesCounterDrift: heatmap events and the lifetime
// counter they conserve against must match exactly.
func TestVerifyHeatmapCatchesCounterDrift(t *testing.T) {
	o := New()
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.HeatmapView("canneal", "tmcc")
	v.Event(0, heatmap.EvML2Read)
	o.Reg.Counter("mc.tmcc.ml2.reads").Add(2) // lifetime says two
	v.Close()
	err := VerifyHeatmap(o.Heat.Snapshot(), o.Reg.Snapshot(), attr.Snapshot{})
	if err == nil || !strings.Contains(err.Error(), "mc.tmcc.ml2.reads") {
		t.Fatalf("counter drift not caught: %v", err)
	}
}

// TestWatchCarriesHeatmap: a watch frame includes the heatmap section
// exactly when the observer carries a recorder (the tmcctop -heatmap
// feed).
func TestWatchCarriesHeatmap(t *testing.T) {
	o := New()
	if ws := o.Watch(1, 0); len(ws.Heatmap.Groups) != 0 {
		t.Error("heatmap section present without a recorder")
	}
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.HeatmapView("canneal", "tmcc")
	v.Access(0, attr.ClassDemand)
	v.Close()
	ws := o.Watch(2, 0)
	if len(ws.Heatmap.Groups) != 1 || ws.Heatmap.Groups[0].Total.Heat[attr.ClassDemand] != 1 {
		t.Errorf("watch frame heatmap wrong: %+v", ws.Heatmap)
	}
}
