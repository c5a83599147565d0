// Package heatmap turns the lifetime aggregates of internal/obs into a
// deterministic distribution over the *address space*: per-access and
// per-event facts fold into fixed-size region buckets keyed by physical
// page index (region = ppn >> regionShift), the spatial analogue of the
// timeline's fixed windows over simulated time.
//
// Per region the recorder tracks access heat by attribution class
// (demand/ptb/writeback/prefetch), migration churn (ML1→ML2 evictions,
// ML2→ML1 demand migrations, pressure-ladder emergency migrations,
// payload quarantines, ML2 demand reads), CTE-cache hit/miss locality,
// a compressed-size histogram, and tier-residency sums sampled at window
// edges (page counts per tier, summed over sweeps; mean occupancy is
// sum/sweeps).
//
// The recorder is a pure accumulator on the same commutative-fold core
// as timeline.Recorder (package fold): per-run delta accumulation lives
// in obs.RunView, which folds one Delta per touched region (plus one
// independently-accumulated group total) at run close. Folds are
// commutative, and Snapshot sorts groups by (benchmark, kind) and regions
// ascending, so the rendered CSV is byte-identical at any worker count.
//
// Each group carries TWO accumulation paths — the region map and the
// group total — fed independently by the view. Σ region counts == total
// is therefore a real cross-check (obs.VerifyHeatmap asserts it), not an
// identity.
//
// Like the registry and the timeline, a heatmap recorder rides
// obs.Observer outside the experiment engine's memo key: observation
// must never change what a run computes. Construction is a cmd-layer
// decision — the tmcclint obs-sink-purity rule forbids internal/
// (outside internal/obs) from calling NewRecorder directly.
package heatmap

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/fold"
)

// DefaultRegionPages is the default region size in 4KB pages: 512 pages
// = 2MiB of physical address space per bucket.
const DefaultRegionPages = 512

// DefaultWindow is the default residency-sampling window: 1ms of
// simulated time, matching the timeline's default width.
const DefaultWindow = config.Millisecond

// Event enumerates the per-page controller events a region accumulates.
type Event int

// The events, each conserved against one lifetime mc.<kind>.* counter.
const (
	EvML1ToML2   Event = iota // eviction compressed a page into ML2
	EvML2ToML1                // demand read migrated a page back to ML1
	EvML2Read                 // demand access served from ML2
	EvEmergency               // pressure-ladder force-migration victim
	EvQuarantine              // payload-fault quarantine out of ML2
	EvRetired                 // RAS scoreboard permanently retired the page's frame
	NumEvents
)

var eventNames = [NumEvents]string{
	"ml1ToML2", "ml2ToML1", "ml2Read", "emergencyMigration", "quarantine",
	"retired",
}

// String names the event (CSV rows key off these).
func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Tier enumerates where a resident page can live at a sampling edge.
type Tier int

// The residency tiers.
const (
	TierML1      Tier = iota // uncompressed, inside the nominal budget
	TierML2                  // compressed sub-chunks
	TierOverflow             // uncompressed, pressure-ladder overflow frame
	TierRetired              // page resident on a frame the RAS scoreboard retired
	NumTiers
)

var tierNames = [NumTiers]string{"ml1", "ml2", "overflow", "retired"}

// String names the tier.
func (t Tier) String() string {
	if t < 0 || t >= NumTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return tierNames[t]
}

// sizeBoundsBytes are the compressed-size histogram's inclusive upper
// bounds; one overflow bucket follows (a 4KB page that compresses past
// the last bound was barely worth compressing).
var sizeBoundsBytes = [...]int64{512, 1024, 2048, 3072}

// NumSizeBuckets counts the size histogram's buckets (bounds + overflow).
const NumSizeBuckets = len(sizeBoundsBytes) + 1

// SizeBounds returns a fresh copy of the compressed-size bucket bounds,
// shared with the mc.<kind>.ml2.compressedBytes registry histogram so the
// two stay conservation-comparable bucket by bucket.
func SizeBounds() []int64 {
	return append([]int64(nil), sizeBoundsBytes[:]...)
}

// sizeBucketNames label the histogram rows in the CSV.
var sizeBucketNames = [NumSizeBuckets]string{"le512", "le1024", "le2048", "le3072", "gt3072"}

// Delta is one region's accumulated facts — and also the unit the view
// folds in, and the group-total accumulator. All fields are commutative
// sums, so folds are order-independent.
type Delta struct {
	// Heat counts recorded accesses per attr class, in attr.Class order.
	Heat [attr.NumClasses]uint64 `json:"heat"`
	// Events counts controller events, in Event order.
	Events [NumEvents]uint64 `json:"events"`
	// CTE-cache lookup outcomes for pages of this region.
	CTEHit  uint64 `json:"cteHit,omitempty"`
	CTEMiss uint64 `json:"cteMiss,omitempty"`
	// Compressed-size histogram over pages compressed into ML2.
	SizeCount  uint64                 `json:"sizeCount,omitempty"`
	SizeSum    int64                  `json:"sizeSum,omitempty"`
	SizeCounts [NumSizeBuckets]uint64 `json:"sizeCounts"`
	// Residency: page counts per tier summed over sampling sweeps. Sweeps
	// is filled only on group totals (a sweep is a group-level fact);
	// mean occupancy of a tier is Res[t] / Sweeps.
	Res    [NumTiers]uint64 `json:"res"`
	Sweeps uint64           `json:"sweeps,omitempty"`
}

// Empty reports whether the delta carries nothing worth folding.
func (d *Delta) Empty() bool {
	return *d == Delta{}
}

// Fold adds o into d (commutative, field-wise).
func (d *Delta) Fold(o *Delta) {
	for i, v := range o.Heat {
		d.Heat[i] += v
	}
	for i, v := range o.Events {
		d.Events[i] += v
	}
	d.CTEHit += o.CTEHit
	d.CTEMiss += o.CTEMiss
	d.SizeCount += o.SizeCount
	d.SizeSum += o.SizeSum
	for i, v := range o.SizeCounts {
		d.SizeCounts[i] += v
	}
	for i, v := range o.Res {
		d.Res[i] += v
	}
	d.Sweeps += o.Sweeps
}

// ObserveSize folds one compressed page size into the histogram.
func (d *Delta) ObserveSize(bytes int64) {
	d.SizeCount++
	d.SizeSum += bytes
	for i, ub := range sizeBoundsBytes {
		if bytes <= ub {
			d.SizeCounts[i]++
			return
		}
	}
	d.SizeCounts[NumSizeBuckets-1]++
}

// HeatTotal sums the access heat across classes — the "hotness" the
// top-regions table ranks by.
func (d *Delta) HeatTotal() uint64 {
	var t uint64
	for _, v := range d.Heat {
		t += v
	}
	return t
}

// Recorder accumulates per-region deltas for every (benchmark, kind)
// group observed in a process, keyed by region index on the shared
// commutative-fold core (package fold), plus each group's independently
// accumulated total. Folds happen only at run close (never per access —
// per-run accumulation lives in obs.RunView). A nil *Recorder ignores
// every operation.
type Recorder struct {
	regionShift uint
	width       config.Time
	core        fold.Recorder[uint64, Delta]
}

// NewRecorder returns an empty recorder. regionPages is the region size
// in 4KB pages, rounded up to a power of two; 0 selects
// DefaultRegionPages. width is the residency-sampling window in
// simulated time; <= 0 selects DefaultWindow.
func NewRecorder(regionPages uint64, width config.Time) *Recorder {
	if regionPages == 0 {
		regionPages = DefaultRegionPages
	}
	shift := uint(0)
	for uint64(1)<<shift < regionPages {
		shift++
	}
	if width <= 0 {
		width = DefaultWindow
	}
	return &Recorder{regionShift: shift, width: width}
}

// RegionOf maps a physical page number onto its region index (0 on nil).
func (r *Recorder) RegionOf(ppn uint64) uint64 {
	if r == nil {
		return 0
	}
	return ppn >> r.regionShift
}

// RegionPages reports the region size in pages (0 on nil).
func (r *Recorder) RegionPages() uint64 {
	if r == nil {
		return 0
	}
	return 1 << r.regionShift
}

// Width reports the residency-sampling window width (0 on nil).
func (r *Recorder) Width() config.Time {
	if r == nil {
		return 0
	}
	return r.width
}

// Add folds one region's delta into the (bench, kind) group; nil-safe.
func (r *Recorder) Add(bench, kind string, region uint64, d *Delta) {
	if r == nil || d.Empty() {
		return
	}
	r.core.Fold(fold.Group{Benchmark: bench, Kind: kind}, region, func(acc *Delta) { acc.Fold(d) })
}

// AddTotal folds a run's group-total delta into the (bench, kind) group's
// independent total accumulator; nil-safe. The view calls it exactly once
// per run, with totals it accumulated separately from the region map —
// keeping Σ regions == total a genuine cross-check.
func (r *Recorder) AddTotal(bench, kind string, d *Delta) {
	if r == nil || d.Empty() {
		return
	}
	r.core.FoldTotal(fold.Group{Benchmark: bench, Kind: kind}, func(total *Delta) { total.Fold(d) })
}

// RegionStats is one region's accumulated facts in a snapshot.
type RegionStats struct {
	Region uint64 `json:"region"`
	Delta
}

// GroupHeatmap is one (benchmark, kind)'s regions, ascending by region
// index, plus the independently accumulated group total.
type GroupHeatmap struct {
	Benchmark string        `json:"benchmark"`
	Kind      string        `json:"kind"`
	Regions   []RegionStats `json:"regions"`
	Total     Delta         `json:"total"`
}

// SumRegions folds every region's stats into one delta — the quantity
// VerifyHeatmap compares against the group total.
func (g GroupHeatmap) SumRegions() Delta {
	var out Delta
	for i := range g.Regions {
		out.Fold(&g.Regions[i].Delta)
	}
	return out
}

// Snapshot is a deterministic point-in-time copy of the recorder.
type Snapshot struct {
	RegionPages uint64         `json:"regionPages,omitempty"`
	WidthPS     int64          `json:"widthPS,omitempty"`
	Groups      []GroupHeatmap `json:"groups,omitempty"`
}

// Snapshot copies the recorder's state; nil-safe (empty snapshot).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{RegionPages: 1 << r.regionShift, WidthPS: int64(r.width)}
	r.core.Walk(func(g fold.Group, total *Delta, regions []fold.Entry[uint64, Delta]) {
		gh := GroupHeatmap{Benchmark: g.Benchmark, Kind: g.Kind, Total: *total}
		for _, e := range regions {
			gh.Regions = append(gh.Regions, RegionStats{Region: e.Key, Delta: *e.Acc})
		}
		s.Groups = append(s.Groups, gh)
	})
	return s
}

// KindTotals folds every group's total per MC kind. Lifetime facts
// (events, CTE locality, compressed sizes) aggregate across benchmarks
// into shared mc.<kind>.* registry instruments, so the conservation
// audit compares at kind granularity.
func (s Snapshot) KindTotals() map[string]Delta {
	out := map[string]Delta{}
	for _, g := range s.Groups {
		t := out[g.Kind]
		t.Fold(&g.Total)
		out[g.Kind] = t
	}
	return out
}

// CSVHeader is the column layout WriteCSV emits; EXPERIMENTS.md keys off
// these names and positions. Region discriminates row scope: a region
// index, or "total" for the group's independent total. Series
// discriminates the row type: "heat" (name = attr class), "event"
// (name = Event), "cte" (hit/miss), "size" (bucket names plus "all"
// carrying count and byte sum), and "residency" (name = tier; the group
// total adds a "sweeps" row).
var CSVHeader = []string{"benchmark", "kind", "region", "series", "name", "count", "sum"}

// WriteCSV renders the snapshot as one row per (region x series x name),
// groups sorted by (benchmark, kind), regions ascending, the group total
// last — the `tmccsim -heatmap` surface. Zero-valued rows are omitted.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	row := make([]string, len(CSVHeader))
	emit := func(bench, kind, region, series, name string, count uint64, sum int64, hasSum bool) error {
		row[0], row[1], row[2] = bench, kind, region
		row[3], row[4] = series, name
		row[5] = strconv.FormatUint(count, 10)
		row[6] = ""
		if hasSum {
			row[6] = strconv.FormatInt(sum, 10)
		}
		return cw.Write(row)
	}
	for _, g := range s.Groups {
		emitDelta := func(region string, d *Delta) error {
			for cl, v := range d.Heat {
				if v == 0 {
					continue
				}
				if err := emit(g.Benchmark, g.Kind, region, "heat", attr.Class(cl).String(), v, 0, false); err != nil {
					return err
				}
			}
			for ev, v := range d.Events {
				if v == 0 {
					continue
				}
				if err := emit(g.Benchmark, g.Kind, region, "event", Event(ev).String(), v, 0, false); err != nil {
					return err
				}
			}
			if d.CTEHit != 0 {
				if err := emit(g.Benchmark, g.Kind, region, "cte", "hit", d.CTEHit, 0, false); err != nil {
					return err
				}
			}
			if d.CTEMiss != 0 {
				if err := emit(g.Benchmark, g.Kind, region, "cte", "miss", d.CTEMiss, 0, false); err != nil {
					return err
				}
			}
			if d.SizeCount != 0 {
				if err := emit(g.Benchmark, g.Kind, region, "size", "all", d.SizeCount, d.SizeSum, true); err != nil {
					return err
				}
			}
			for b, v := range d.SizeCounts {
				if v == 0 {
					continue
				}
				if err := emit(g.Benchmark, g.Kind, region, "size", sizeBucketNames[b], v, 0, false); err != nil {
					return err
				}
			}
			for t, v := range d.Res {
				if v == 0 {
					continue
				}
				if err := emit(g.Benchmark, g.Kind, region, "residency", Tier(t).String(), v, 0, false); err != nil {
					return err
				}
			}
			if d.Sweeps != 0 {
				if err := emit(g.Benchmark, g.Kind, region, "residency", "sweeps", d.Sweeps, 0, false); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range g.Regions {
			if err := emitDelta(strconv.FormatUint(g.Regions[i].Region, 10), &g.Regions[i].Delta); err != nil {
				return err
			}
		}
		total := g.Total
		if err := emitDelta("total", &total); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTopRegions renders the collapsed "hottest regions" table: per
// (benchmark, kind) group, the k regions with the highest access heat,
// with per-class counts, migration churn, and the dominant residency
// tier. The tmccsim -heatmap surface prints it on stderr next to the
// full CSV export.
func (s Snapshot) WriteTopRegions(w io.Writer, k int) error {
	if k <= 0 {
		k = 10
	}
	for _, g := range s.Groups {
		idx := make([]int, len(g.Regions))
		for i := range idx {
			idx[i] = i
		}
		// Hottest first; region index breaks ties so the table is
		// deterministic.
		sort.Slice(idx, func(a, b int) bool {
			ha, hb := g.Regions[idx[a]].HeatTotal(), g.Regions[idx[b]].HeatTotal()
			if ha != hb {
				return ha > hb
			}
			return g.Regions[idx[a]].Region < g.Regions[idx[b]].Region
		})
		n := k
		if n > len(idx) {
			n = len(idx)
		}
		regionMiB := s.RegionPages * config.PageSize / config.MiB
		if _, err := fmt.Fprintf(w, "heatmap %s/%s: top %d of %d regions (%d MiB each)\n",
			g.Benchmark, g.Kind, n, len(g.Regions), regionMiB); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %8s %10s %10s %8s %8s %8s %8s %6s\n",
			"region", "heat", "demand", "ptb", "wb", "pf", "churn", "tier"); err != nil {
			return err
		}
		for _, i := range idx[:n] {
			r := &g.Regions[i]
			churn := r.Events[EvML1ToML2] + r.Events[EvML2ToML1] + r.Events[EvEmergency]
			if _, err := fmt.Fprintf(w, "  %8d %10d %10d %8d %8d %8d %8d %6s\n",
				r.Region, r.HeatTotal(),
				r.Heat[attr.ClassDemand], r.Heat[attr.ClassPTB],
				r.Heat[attr.ClassWriteback], r.Heat[attr.ClassPrefetch],
				churn, dominantTier(&r.Delta)); err != nil {
				return err
			}
		}
	}
	return nil
}

// dominantTier names the tier holding the most sampled pages ("-" when
// the region was never sampled resident).
func dominantTier(d *Delta) string {
	best, bestV := -1, uint64(0)
	for t, v := range d.Res {
		if v > bestV {
			best, bestV = t, v
		}
	}
	if best < 0 {
		return "-"
	}
	return Tier(best).String()
}
