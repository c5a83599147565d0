package heatmap

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
)

// TestRegionOfEdges pins the region-key semantics: page index shifted by
// the power-of-two region size, so the first page of a region and the
// last page of the previous one land one region apart.
func TestRegionOfEdges(t *testing.T) {
	r := NewRecorder(512, 0)
	cases := []struct {
		ppn, want uint64
	}{
		{0, 0},
		{511, 0},  // last page of region 0
		{512, 1},  // first page of region 1
		{1023, 1}, // last page of region 1
		{1024, 2}, // first page of region 2
		{1 << 40, 1 << 31},
	}
	for _, c := range cases {
		if got := r.RegionOf(c.ppn); got != c.want {
			t.Errorf("RegionOf(%d) = %d, want %d", c.ppn, got, c.want)
		}
	}
}

// TestNewRecorderRounding: region sizes round up to a power of two (those
// above 1<<63 clamp to it), zero selects the defaults.
func TestNewRecorderRounding(t *testing.T) {
	for _, c := range []struct {
		in, want uint64
	}{
		{0, DefaultRegionPages},
		{1, 1},
		{2, 2},
		{3, 4},
		{511, 512},
		{512, 512},
		{513, 1024},
		{1 << 63, 1 << 63},
		{1<<63 + 1, 1 << 63}, // once looped forever: 1<<64 is 0
		{math.MaxUint64, 1 << 63},
	} {
		if got := NewRecorder(c.in, 0).RegionPages(); got != c.want {
			t.Errorf("NewRecorder(%d).RegionPages() = %d, want %d", c.in, got, c.want)
		}
	}
	if w := NewRecorder(0, 0).Width(); w != DefaultWindow {
		t.Errorf("default width = %v, want %v", w, DefaultWindow)
	}
	if w := NewRecorder(0, 5*config.Microsecond).Width(); w != 5*config.Microsecond {
		t.Errorf("explicit width = %v", w)
	}
}

// TestNilRecorderSafe: every operation on a nil recorder is a no-op.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add("b", "k", 0, &Delta{CTEHit: 1})
	r.AddTotal("b", "k", &Delta{CTEHit: 1})
	if r.RegionOf(99) != 0 || r.RegionPages() != 0 || r.Width() != 0 {
		t.Error("nil recorder accessors not zero")
	}
	if s := r.Snapshot(); len(s.Groups) != 0 {
		t.Error("nil recorder snapshot not empty")
	}
}

// deltas returns three distinguishable deltas for fold-order tests.
func deltas() []*Delta {
	a := &Delta{CTEHit: 3}
	a.Heat[attr.ClassDemand] = 10
	a.Events[EvML1ToML2] = 2
	b := &Delta{CTEMiss: 5}
	b.Heat[attr.ClassWriteback] = 7
	b.Res[TierML2] = 4
	c := &Delta{}
	c.ObserveSize(100)
	c.ObserveSize(4000)
	c.Events[EvEmergency] = 1
	return []*Delta{a, b, c}
}

// TestFoldOrderIndependence: folding the same deltas in any order, into
// the recorder or into a Delta, yields identical snapshots — the property
// that makes worker-count invariance possible.
func TestFoldOrderIndependence(t *testing.T) {
	ds := deltas()
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}}
	var bufs []string
	for _, ord := range orders {
		r := NewRecorder(512, 0)
		for _, i := range ord {
			r.Add("canneal", "tmcc", 7, ds[i])
			r.AddTotal("canneal", "tmcc", ds[i])
		}
		var b bytes.Buffer
		if err := r.Snapshot().WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b.String())
	}
	if bufs[0] != bufs[1] || bufs[0] != bufs[2] {
		t.Errorf("fold order changed the CSV:\n%s\nvs\n%s\nvs\n%s", bufs[0], bufs[1], bufs[2])
	}
}

// TestSumRegionsMatchesTotal: when the same deltas feed both paths, the
// region sum equals the independent total (Sweeps excepted).
func TestSumRegionsMatchesTotal(t *testing.T) {
	r := NewRecorder(512, 0)
	for i, d := range deltas() {
		r.Add("canneal", "tmcc", uint64(i), d)
		r.AddTotal("canneal", "tmcc", d)
	}
	r.AddTotal("canneal", "tmcc", &Delta{Sweeps: 2})
	s := r.Snapshot()
	if len(s.Groups) != 1 {
		t.Fatalf("groups = %d", len(s.Groups))
	}
	sum := s.Groups[0].SumRegions()
	sum.Sweeps = s.Groups[0].Total.Sweeps
	if sum != s.Groups[0].Total {
		t.Errorf("region sum %+v != total %+v", sum, s.Groups[0].Total)
	}
}

// TestKindTotalsFoldAcrossBenchmarks mirrors how lifetime mc.* counters
// aggregate: two benchmarks of one kind fold into one kind total.
func TestKindTotalsFoldAcrossBenchmarks(t *testing.T) {
	r := NewRecorder(512, 0)
	d := &Delta{CTEHit: 2}
	r.AddTotal("canneal", "tmcc", d)
	r.AddTotal("mcf", "tmcc", d)
	r.AddTotal("mcf", "compresso", d)
	kt := r.Snapshot().KindTotals()
	if kt["tmcc"].CTEHit != 4 || kt["compresso"].CTEHit != 2 {
		t.Errorf("kind totals wrong: %+v", kt)
	}
}

// TestObserveSizeBuckets pins the bucket edges shared with the registry's
// ml2.compressedBytes histogram (inclusive upper bounds + overflow).
func TestObserveSizeBuckets(t *testing.T) {
	var d Delta
	for _, b := range []int64{512, 513, 1024, 3072, 3073, 9999} {
		d.ObserveSize(b)
	}
	want := [NumSizeBuckets]uint64{1, 2, 0, 1, 2}
	if d.SizeCounts != want {
		t.Errorf("SizeCounts = %v, want %v", d.SizeCounts, want)
	}
	if d.SizeCount != 6 || d.SizeSum != 512+513+1024+3072+3073+9999 {
		t.Errorf("count=%d sum=%d", d.SizeCount, d.SizeSum)
	}
	bounds := SizeBounds()
	if len(bounds) != NumSizeBuckets-1 {
		t.Errorf("SizeBounds len %d", len(bounds))
	}
	bounds[0] = -1 // must be a copy
	if SizeBounds()[0] == -1 {
		t.Error("SizeBounds returned shared storage")
	}
}

// TestWriteCSVShape checks column layout, row scoping (region index vs
// "total"), zero-row suppression, and that the sweeps row appears only on
// the total.
func TestWriteCSVShape(t *testing.T) {
	r := NewRecorder(512, 0)
	var d Delta
	d.Heat[attr.ClassDemand] = 9
	d.ObserveSize(700)
	r.Add("canneal", "tmcc", 3, &d)
	tot := d
	tot.Sweeps = 1
	tot.Res[TierML1] = 5
	r.AddTotal("canneal", "tmcc", &tot)

	var b bytes.Buffer
	if err := r.Snapshot().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(rows[0], ","), strings.Join(CSVHeader, ","); got != want {
		t.Fatalf("header %q, want %q", got, want)
	}
	var sawRegionHeat, sawSizeAll, sawTotalSweeps bool
	for _, row := range rows[1:] {
		if row[5] == "0" {
			t.Errorf("zero-count row emitted: %v", row)
		}
		switch {
		case row[2] == "3" && row[3] == "heat" && row[4] == "demand" && row[5] == "9":
			sawRegionHeat = true
		case row[2] == "3" && row[3] == "size" && row[4] == "all" && row[6] == "700":
			sawSizeAll = true
		case row[3] == "residency" && row[4] == "sweeps":
			if row[2] != "total" {
				t.Errorf("sweeps row outside total scope: %v", row)
			}
			sawTotalSweeps = true
		}
	}
	if !sawRegionHeat || !sawSizeAll || !sawTotalSweeps {
		t.Errorf("missing expected rows (heat=%v sizeAll=%v sweeps=%v):\n%v",
			sawRegionHeat, sawSizeAll, sawTotalSweeps, rows)
	}
}

// TestWriteTopRegions: ranking by total heat with region-index tiebreak,
// bounded at k, dominant tier named or "-".
func TestWriteTopRegions(t *testing.T) {
	r := NewRecorder(512, 0)
	hot := Delta{}
	hot.Heat[attr.ClassDemand] = 100
	hot.Res[TierML2] = 3
	warm := Delta{}
	warm.Heat[attr.ClassPrefetch] = 10
	r.Add("canneal", "tmcc", 9, &hot)
	r.Add("canneal", "tmcc", 2, &warm)
	r.Add("canneal", "tmcc", 5, &warm)
	var b bytes.Buffer
	if err := r.Snapshot().WriteTopRegions(&b, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "top 2 of 3 regions (2 MiB each)") {
		t.Errorf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "ml2") {
		t.Errorf("dominant tier missing:\n%s", out)
	}
	// Hottest region (9) first, then the tied warm pair resolved by index (2).
	i9, i2, i5 := strings.Index(out, "       9 "), strings.Index(out, "       2 "), strings.Index(out, "       5 ")
	if i9 < 0 || i2 < 0 || i9 > i2 {
		t.Errorf("ranking wrong (9 at %d, 2 at %d):\n%s", i9, i2, out)
	}
	if i5 >= 0 {
		t.Errorf("k=2 table shows a third region:\n%s", out)
	}
}

// TestEnumStrings: names are in declaration order and out-of-range values
// degrade instead of panicking.
func TestEnumStrings(t *testing.T) {
	if EvML1ToML2.String() != "ml1ToML2" || EvQuarantine.String() != "quarantine" {
		t.Error("event names wrong")
	}
	if TierOverflow.String() != "overflow" {
		t.Error("tier names wrong")
	}
	if Event(99).String() != "event(99)" || Tier(-1).String() != "tier(-1)" {
		t.Error("out-of-range enum String not degrading")
	}
}
