package timeline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
)

// TestWindowStartEdge pins the window semantics every per-run hook shares
// through Edge (timeline flush, heatmap residency sweep, RAS policy tick,
// CTE patrol): a window with start k covers (k, k+width], so a time exactly
// on a window edge lands in the EARLIER window; simulated time 0 (atomic
// placement) and anything before it is window 0; and a time behind the
// current window never re-fires an edge — ras relies on that for nested
// background accesses replaying earlier timestamps. Rendering tools
// depend on this never changing.
func TestWindowStartEdge(t *testing.T) {
	w := config.Millisecond
	e := NewEdge(w)
	steps := []struct {
		t     config.Time
		start int64 // WindowStart(t, w)
		cross bool  // e.Cross(t), fed in table order
		cur   int64 // e.Start() afterwards
	}{
		{0, 0, false, 0},                                  // placement: no time has elapsed
		{-5, 0, false, 0},                                 // negative clamps to window 0
		{1, 0, false, 0},                                  // first picosecond of window 0
		{w - 1, 0, false, 0},                              //
		{w, 0, false, 0},                                  // edge time -> EARLIER window
		{w + 1, int64(w), true, int64(w)},                 // first tick past the edge fires
		{2 * w, int64(w), false, int64(w)},                // next edge, same rule
		{w + 1, int64(w), false, int64(w)},                // same window again: no re-fire
		{17*w + w/2, int64(17 * w), true, int64(17 * w)},  // skipped windows fire once
		{3*w + 1, int64(3 * w), false, int64(17 * w)},     // behind the clock: never re-fires
		{17*w + w/2, int64(17 * w), false, int64(17 * w)}, // back in the current window
		{18*w + 1, int64(18 * w), true, int64(18 * w)},    // forward again
	}
	for _, c := range steps {
		if got := WindowStart(c.t, w); got != c.start {
			t.Errorf("WindowStart(%d, %d) = %d, want %d", c.t, w, got, c.start)
		}
		if got := e.Cross(c.t); got != c.cross {
			t.Errorf("Cross(%d) = %v, want %v", c.t, got, c.cross)
		}
		if got := e.Start(); got != c.cur {
			t.Errorf("after Cross(%d): Start = %d, want %d", c.t, got, c.cur)
		}
	}
	// The same edge rule at a different width.
	if got := WindowStart(3*config.Microsecond, config.Microsecond); got != int64(2*config.Microsecond) {
		t.Errorf("edge at 3us/1us window = %d, want %d", got, 2*config.Microsecond)
	}
	if got := WindowStart(3*config.Microsecond+1, config.Microsecond); got != int64(3*config.Microsecond) {
		t.Errorf("3us+1ps/1us window = %d, want %d", got, 3*config.Microsecond)
	}
}

func delta(path string, n uint64) *Delta {
	return &Delta{Counters: []CounterDelta{{Path: path, Delta: n}}}
}

// TestRecorderFoldOrderIndependent: two recorders fed the same deltas in
// different interleavings snapshot identically — the property that makes
// the timeline byte-identical at any -j.
func TestRecorderFoldOrderIndependent(t *testing.T) {
	rs := []*Recorder{NewRecorder(0), NewRecorder(0)}
	adds := []struct {
		bench, kind string
		win         int64
		d           *Delta
	}{
		{"canneal", "tmcc", 0, delta("a", 1)},
		{"canneal", "tmcc", 0, delta("b", 2)},
		{"canneal", "tmcc", int64(DefaultWindow), delta("a", 3)},
		{"mcf", "compresso", 0, delta("a", 4)},
		{"canneal", "tmcc", 0, delta("a", 10)},
	}
	for _, a := range adds {
		if err := rs[0].Add(a.bench, a.kind, a.win, a.d); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(adds) - 1; i >= 0; i-- {
		a := adds[i]
		if err := rs[1].Add(a.bench, a.kind, a.win, a.d); err != nil {
			t.Fatal(err)
		}
	}
	s0, s1 := rs[0].Snapshot(), rs[1].Snapshot()
	if !reflect.DeepEqual(s0, s1) {
		t.Fatalf("snapshots differ by add order:\n%+v\n%+v", s0, s1)
	}
	// Shape spot-checks: groups sorted by (bench, kind), windows ascending,
	// counters merged.
	if len(s0.Groups) != 2 || s0.Groups[0].Benchmark != "canneal" || s0.Groups[1].Benchmark != "mcf" {
		t.Fatalf("unexpected group order: %+v", s0.Groups)
	}
	g := s0.Groups[0]
	if len(g.Windows) != 2 || g.Windows[0].StartPS != 0 || g.Windows[1].StartPS != int64(DefaultWindow) {
		t.Fatalf("unexpected windows: %+v", g.Windows)
	}
	if got := g.Windows[0].Counters; len(got) != 2 || got[0].Path != "a" || got[0].Delta != 11 || got[1].Delta != 2 {
		t.Fatalf("window 0 counters = %+v, want a=11 b=2", got)
	}
}

// TestNilRecorderInert: every method on a nil recorder is a no-op — the
// flags-off contract the sim hot loop relies on.
func TestNilRecorderInert(t *testing.T) {
	var r *Recorder
	if err := r.Add("b", "k", 0, delta("x", 1)); err != nil {
		t.Fatal(err)
	}
	if w := r.Width(); w != 0 {
		t.Errorf("nil Width = %d", w)
	}
	if s := r.Snapshot(); len(s.Groups) != 0 || s.WidthPS != 0 {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

// TestAddRejectsMalformedDeltas: shape corruption is reported as an error,
// never a panic or silent misfold.
func TestAddRejectsMalformedDeltas(t *testing.T) {
	r := NewRecorder(0)
	h := HistDelta{Path: "h", Count: 1, Sum: 5, Bounds: []int64{10, 20}, Counts: []uint64{1, 0, 0}}
	if err := r.Add("b", "k", 0, &Delta{Hists: []HistDelta{h}}); err != nil {
		t.Fatal(err)
	}
	bad := h
	bad.Bounds = []int64{10, 30}
	if err := r.Add("b", "k", 0, &Delta{Hists: []HistDelta{bad}}); err == nil {
		t.Error("bucket-shape mismatch accepted")
	}
	if err := r.Add("b", "k", 0, &Delta{Attr: []AttrDelta{{Class: attr.NumClasses, CompPS: make([]int64, attr.NumComponents)}}}); err == nil {
		t.Error("out-of-range attr class accepted")
	}
	if err := r.Add("b", "k", 0, &Delta{Attr: []AttrDelta{{Class: 0, CompPS: []int64{1}}}}); err == nil {
		t.Error("short attr component vector accepted")
	}
}

// TestInterpQuantile pins the interpolation rules the CSV quantile columns
// are built on, in particular the zero-count case (0, never NaN).
func TestInterpQuantile(t *testing.T) {
	bounds := []int64{10, 20, 40}
	if got := InterpQuantile(bounds, []uint64{0, 0, 0, 0}, 0, 0.5); got != 0 {
		t.Errorf("zero-count quantile = %v, want 0", got)
	}
	if got := InterpQuantile(nil, nil, 5, 0.5); got != 0 {
		t.Errorf("bound-less quantile = %v, want 0", got)
	}
	// All mass in one interior bucket: interpolates inside (10, 20].
	counts := []uint64{0, 4, 0, 0}
	if got := InterpQuantile(bounds, counts, 4, 0.5); got <= 10 || got > 20 {
		t.Errorf("p50 of bucket (10,20] = %v, want in (10, 20]", got)
	}
	// Overflow bucket reports the last finite bound as a floor.
	if got := InterpQuantile(bounds, []uint64{0, 0, 0, 3}, 3, 0.99); got != 40 {
		t.Errorf("overflow-bucket quantile = %v, want 40", got)
	}
	// Quantiles are monotone in q.
	mixed := []uint64{2, 3, 4, 1}
	prev := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		v := InterpQuantile(bounds, mixed, 10, q)
		if v < prev {
			t.Errorf("quantile not monotone: q=%v -> %v after %v", q, v, prev)
		}
		prev = v
	}
	// q clamps rather than extrapolating.
	if InterpQuantile(bounds, mixed, 10, -3) != InterpQuantile(bounds, mixed, 10, 0) {
		t.Error("q < 0 not clamped")
	}
	if InterpQuantile(bounds, mixed, 10, 7) != InterpQuantile(bounds, mixed, 10, 1) {
		t.Error("q > 1 not clamped")
	}
}

// TestAttrDeltaConserved pins the per-window conservation rule: components
// sum to the total with the overlap credit subtracted twice (it is already
// included inside cteParallel's full duration).
func TestAttrDeltaConserved(t *testing.T) {
	d := AttrDelta{Class: 0, Count: 1, CompPS: make([]int64, attr.NumComponents)}
	d.CompPS[attr.CWalk] = 100
	d.CompPS[attr.CCTEParallel] = 50
	d.CompPS[attr.COverlap] = 30
	d.TotalPS = 100 + 50 - 30
	if !d.Conserved() {
		t.Errorf("conserved delta reported unconserved: %+v", d)
	}
	d.TotalPS++
	if d.Conserved() {
		t.Error("off-by-one total reported conserved")
	}
}

// TestWriteCSVShape: header matches CSVHeader, counter/histogram/attr rows
// carry the documented columns, and the output is stable across calls.
func TestWriteCSVShape(t *testing.T) {
	r := NewRecorder(config.Microsecond)
	d := &Delta{
		Counters: []CounterDelta{{Path: "mc.tmcc.ctecache.hit", Delta: 7}},
		Hists:    []HistDelta{{Path: "sim.l3.missLatencyNS", Count: 2, Sum: 90, Bounds: []int64{40, 80}, Counts: []uint64{1, 1, 0}}},
	}
	ad := AttrDelta{Class: 0, Count: 3, CompPS: make([]int64, attr.NumComponents)}
	ad.CompPS[attr.CWalk] = 400
	ad.TotalPS = 400
	d.Attr = append(d.Attr, ad)
	if err := r.Add("canneal", "tmcc", 0, d); err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := r.Snapshot().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteCSV is not deterministic across calls")
	}

	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if lines[0] != strings.Join(CSVHeader, ",") {
		t.Fatalf("header = %q", lines[0])
	}
	// 1 counter + 1 histogram + 1 attr total + NumComponents component rows.
	want := 1 + 1 + 1 + int(attr.NumComponents)
	if len(lines)-1 != want {
		t.Fatalf("%d data rows, want %d:\n%s", len(lines)-1, want, a.String())
	}
	if !strings.HasPrefix(lines[1], "canneal,tmcc,0,counter,mc.tmcc.ctecache.hit,7,") {
		t.Errorf("counter row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "canneal,tmcc,0,histogram,sim.l3.missLatencyNS,2,90,") {
		t.Errorf("histogram row = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "canneal,tmcc,0,attr,demand.total,3,400,") {
		t.Errorf("attr total row = %q", lines[3])
	}
}

// TestTotals: CounterTotals/HistTotals/AttrTotals fold windows back into
// lifetime sums — the other half of the conservation audit.
func TestTotals(t *testing.T) {
	r := NewRecorder(0)
	h := func(c uint64, s int64) HistDelta {
		return HistDelta{Path: "h", Count: c, Sum: s, Bounds: []int64{10}, Counts: []uint64{c, 0}}
	}
	if err := r.Add("b", "k", 0, &Delta{Counters: []CounterDelta{{"x", 2}}, Hists: []HistDelta{h(1, 5)}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("b", "k", int64(DefaultWindow), &Delta{Counters: []CounterDelta{{"x", 3}}, Hists: []HistDelta{h(2, 7)}}); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if got := s.CounterTotals()["x"]; got != 5 {
		t.Errorf("CounterTotals[x] = %d, want 5", got)
	}
	ht, err := s.HistTotals()
	if err != nil {
		t.Fatal(err)
	}
	if got := ht["h"]; got.Count != 3 || got.Sum != 12 || got.Counts[0] != 3 {
		t.Errorf("HistTotals[h] = %+v, want count 3 sum 12", got)
	}
}
