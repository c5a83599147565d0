package obs

import (
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// TestVerifyTimelineNamesFirstDriftingPath: with several counters
// drifting, the error names the lexically first one on every call, not
// whichever path a map iteration happens to reach first.
func TestVerifyTimelineNamesFirstDriftingPath(t *testing.T) {
	tl := timeline.NewRecorder(config.Microsecond)
	d := timeline.Delta{Counters: []timeline.CounterDelta{
		{Path: "mc.tmcc.reads", Delta: 1},
		{Path: "mc.tmcc.cte.missWalkRelated", Delta: 1},
		{Path: "mc.tmcc.spec.verifyOK", Delta: 1},
	}}
	if err := tl.Add("canneal", "tmcc", 0, &d); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Counter("mc.tmcc.reads").Add(2)
	reg.Counter("mc.tmcc.cte.missWalkRelated").Add(1)
	reg.Counter("mc.tmcc.spec.verifyOK").Add(2)
	for i := 0; i < 20; i++ {
		err := VerifyTimeline(tl.Snapshot(), reg.Snapshot(), attr.Snapshot{})
		if err == nil || !strings.Contains(err.Error(), `"mc.tmcc.reads"`) {
			t.Fatalf("call %d: %v; want the first drifting path mc.tmcc.reads", i, err)
		}
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
	v := o.RunView("canneal", "tmcc")
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
	v := o.RunView("canneal", "tmcc")
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
	v := o.RunView("canneal", "tmcc")
	v.Event(0, heatmap.EvML2Read)
	o.Reg.Counter("mc.tmcc.ml2.reads").Add(2) // lifetime says two
	v.Close()
	err := VerifyHeatmap(o.Heat.Snapshot(), o.Reg.Snapshot(), attr.Snapshot{})
	if err == nil || !strings.Contains(err.Error(), "mc.tmcc.ml2.reads") {
		t.Fatalf("counter drift not caught: %v", err)
	}
}

// TestHeatmapSnapshotFollowsRecorder: the observer's heatmap snapshot is
// empty without a recorder and carries a closed view's fold with one.
func TestHeatmapSnapshotFollowsRecorder(t *testing.T) {
	o := New()
	if hm := o.Heat.Snapshot(); len(hm.Groups) != 0 {
		t.Error("heatmap groups present without a recorder")
	}
	o.Heat = heatmap.NewRecorder(0, 0)
	v := o.RunView("canneal", "tmcc")
	v.Access(0, attr.ClassDemand)
	v.Close()
	hm := o.Heat.Snapshot()
	if len(hm.Groups) != 1 || hm.Groups[0].Total.Heat[attr.ClassDemand] != 1 {
		t.Errorf("heatmap snapshot wrong: %+v", hm)
	}
}

// TestObserverVerifyNamesFailingAudit: Verify passes on a nil observer and
// on one with nothing recorded, and surfaces a timeline or heatmap drift
// prefixed with the audit that caught it.
func TestObserverVerifyNamesFailingAudit(t *testing.T) {
	var nilObs *Observer
	if err := nilObs.Verify(); err != nil {
		t.Errorf("nil observer: %v", err)
	}
	if err := New().Verify(); err != nil {
		t.Errorf("empty observer: %v", err)
	}

	tlObs := New()
	tlObs.TL = timeline.NewRecorder(config.Microsecond)
	v := tlObs.RunView("canneal", "tmcc")
	v.Observer().Counter("mc.tmcc.reads").Inc()
	v.Close()
	if err := tlObs.Verify(); err != nil {
		t.Fatalf("conserving timeline rejected: %v", err)
	}
	tlObs.Reg.Counter("mc.tmcc.reads").Inc() // lifetime drifts past the windows
	if err := tlObs.Verify(); err == nil || !strings.HasPrefix(err.Error(), "timeline: ") {
		t.Errorf("timeline drift: %v, want a timeline: error", err)
	}

	hmObs := New()
	hmObs.Heat = heatmap.NewRecorder(0, 0)
	v = hmObs.RunView("canneal", "tmcc")
	v.Event(0, heatmap.EvML2Read)
	v.Close()
	if err := hmObs.Verify(); err == nil || !strings.HasPrefix(err.Error(), "heatmap: ") {
		t.Errorf("heatmap event with no lifetime counter: %v, want a heatmap: error", err)
	}
}
