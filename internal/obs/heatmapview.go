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

// HeatmapView is one run's window into the spatial heatmap recorder.
// Unlike the timeline view it does not shadow the registry — heat facts
// carry an address (a physical page number) that the registry's dotted
// paths cannot express, so the simulator and memory controller record
// into the view directly: the sim batch loop stamps access heat, mc
// stamps migrations/pressure/ML2 serves/compressed sizes, and ctecache
// stamps translation locality. Accumulation is run-private and
// lock-free; Close folds every touched region into the shared recorder
// (sorted, one mutex acquisition per region) plus one independently
// accumulated group total, so Σ regions == total stays a real
// cross-check downstream.
//
// A nil *HeatmapView ignores every operation, keeping the flags-off hot
// path a single predictable branch.
type HeatmapView struct {
	rec   *heatmap.Recorder
	bench string
	kind  string

	regions map[uint64]*heatmap.Delta
	total   heatmap.Delta
	edge    timeline.Edge
	closed  bool
}

// HeatmapView derives a per-run view for one (benchmark, kind); nil when
// the observer carries no heatmap recorder.
func (o *Observer) HeatmapView(bench, kind string) *HeatmapView {
	if o == nil || o.Heat == nil {
		return nil
	}
	return &HeatmapView{
		rec:     o.Heat,
		bench:   bench,
		kind:    kind,
		regions: map[uint64]*heatmap.Delta{},
		edge:    timeline.NewEdge(o.Heat.Width()),
	}
}

// region returns the accumulator for the region holding ppn.
func (v *HeatmapView) region(ppn uint64) *heatmap.Delta {
	r := v.rec.RegionOf(ppn)
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
// Nil-safe.
func (v *HeatmapView) Access(ppn uint64, cl attr.Class) {
	if v == nil {
		return
	}
	v.region(ppn).Heat[cl]++
	v.total.Heat[cl]++
}

// Event stamps one controller event against ppn's region. Events are
// lifetime facts (not recording-gated), matching the lifetime mc.<kind>.*
// registry counters they conserve against. Nil-safe.
func (v *HeatmapView) Event(ppn uint64, ev heatmap.Event) {
	if v == nil {
		return
	}
	v.region(ppn).Events[ev]++
	v.total.Events[ev]++
}

// CTE stamps one CTE-cache lookup outcome for ppn's region; nil-safe.
func (v *HeatmapView) CTE(ppn uint64, hit bool) {
	if v == nil {
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
// compressed into ML2) into its region's histogram; nil-safe.
func (v *HeatmapView) CompressedSize(ppn uint64, bytes int64) {
	if v == nil {
		return
	}
	v.region(ppn).ObserveSize(bytes)
	v.total.ObserveSize(bytes)
}

// Advance rolls the view to the residency window holding simulated time
// now, reporting true when a sampling edge was crossed — the caller then
// sweeps current page residency into Residency exactly once. The edge
// semantics are the timeline's (timeline.Edge). Nil-safe (false).
func (v *HeatmapView) Advance(now config.Time) bool {
	if v == nil || !v.edge.Cross(now) {
		return false
	}
	v.total.Sweeps++
	return true
}

// Sweep marks one explicit residency sweep outside the windowed cadence
// — the simulator runs one final sweep at the end of every run, so short
// runs that never cross a sampling window still carry a residency
// sample. Returns false on nil (or after Close) so callers gate the
// page iteration itself on it.
func (v *HeatmapView) Sweep() bool {
	if v == nil || v.closed {
		return false
	}
	v.total.Sweeps++
	return true
}

// Residency stamps one page as resident in tier at the current sampling
// edge. Driven by mc's residency sweep after Advance returns true;
// nil-safe.
func (v *HeatmapView) Residency(ppn uint64, tier heatmap.Tier) {
	if v == nil {
		return
	}
	v.region(ppn).Res[tier]++
	v.total.Res[tier]++
}

// Close folds the run's regions and its independently accumulated total
// into the shared recorder, in ascending region order. Idempotent and
// nil-safe; runs call it exactly once, at the end of Run.
func (v *HeatmapView) Close() {
	if v == nil || v.closed {
		return
	}
	v.closed = true
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
		v.rec.Add(v.bench, v.kind, r, v.regions[r])
	}
	v.rec.AddTotal(v.bench, v.kind, &v.total)
}

// heatCounterPaths maps each heatmap event (and the CTE outcomes) onto
// the lifetime registry counter it conserves against, per MC kind.
func heatCounterPaths(kind string) map[string]heatmap.Event {
	p := "mc." + kind + "."
	return map[string]heatmap.Event{
		p + "ml1.toML2":                    heatmap.EvML1ToML2,
		p + "ml2.toML1":                    heatmap.EvML2ToML1,
		p + "ml2.reads":                    heatmap.EvML2Read,
		p + "pressure.emergencyMigrations": heatmap.EvEmergency,
		p + "fault.quarantines":            heatmap.EvQuarantine,
		p + "ras.retired":                  heatmap.EvRetired,
	}
}

// VerifyHeatmap checks the heatmap conservation invariant against the
// lifetime sinks, three ways:
//
//  1. Internal: per group, the region sums must equal the group's
//     independently accumulated total field by field (Sweeps excepted —
//     sampling edges are group-level facts with no region).
//  2. Heat vs attribution: per group and class, total heat must equal
//     the lifetime attr class count — both count exactly the recorded
//     accesses. Skipped when no attr recorder was armed.
//  3. Events, CTE locality, and compressed sizes vs the registry: mc.*
//     instruments aggregate across benchmarks sharing a kind, so the
//     per-kind heatmap totals must match the lifetime counters and the
//     ml2.compressedBytes histogram bucket by bucket. A missing
//     instrument with a nonzero heatmap total is an error; zero-zero is
//     exempt (the path never registered because the event cannot occur
//     for that kind).
//
// The cmd layer runs this before every heatmap export, the same way
// VerifyTimeline guards timeline exports.
func VerifyHeatmap(hm heatmap.Snapshot, reg Snapshot, at attr.Snapshot) error {
	for _, g := range hm.Groups {
		sum := g.SumRegions()
		sum.Sweeps = g.Total.Sweeps
		if sum != g.Total {
			return fmt.Errorf("obs: heatmap %s/%s: region sums disagree with group total", g.Benchmark, g.Kind)
		}
		if len(at.Groups) == 0 {
			continue
		}
		for cl := attr.Class(0); cl < attr.NumClasses; cl++ {
			h := g.Total.Heat[cl]
			lc, ok := attrClass(at, g.Benchmark, g.Kind, cl.String())
			if !ok {
				if h != 0 {
					return fmt.Errorf("obs: heatmap %s/%s: %d %s accesses but no lifetime attr class",
						g.Benchmark, g.Kind, h, cl)
				}
				continue
			}
			if h != lc.Count {
				return fmt.Errorf("obs: heatmap %s/%s class %s: regions sum to %d, lifetime attr count %d",
					g.Benchmark, g.Kind, cl, h, lc.Count)
			}
		}
	}
	for kind, total := range hm.KindTotals() {
		paths := heatCounterPaths(kind)
		// Deterministic error selection: check paths in sorted order.
		keys := make([]string, 0, len(paths))
		for p := range paths {
			keys = append(keys, p)
		}
		sort.Strings(keys)
		for _, path := range keys {
			got := total.Events[paths[path]]
			sm, ok := reg.Get(path)
			if !ok {
				if got != 0 {
					return fmt.Errorf("obs: heatmap counter %q missing from lifetime registry (heatmap total %d)", path, got)
				}
				continue
			}
			if uint64(sm.Value) != got {
				return fmt.Errorf("obs: heatmap counter %q: regions sum to %d, lifetime %d", path, got, sm.Value)
			}
		}
		for _, c := range []struct {
			path string
			got  uint64
		}{
			{"mc." + kind + ".ctecache.hit", total.CTEHit},
			{"mc." + kind + ".ctecache.miss", total.CTEMiss},
		} {
			sm, ok := reg.Get(c.path)
			if !ok {
				if c.got != 0 {
					return fmt.Errorf("obs: heatmap counter %q missing from lifetime registry (heatmap total %d)", c.path, c.got)
				}
				continue
			}
			if uint64(sm.Value) != c.got {
				return fmt.Errorf("obs: heatmap counter %q: regions sum to %d, lifetime %d", c.path, c.got, sm.Value)
			}
		}
		hpath := "mc." + kind + ".ml2.compressedBytes"
		sm, ok := reg.Get(hpath)
		if !ok {
			if total.SizeCount != 0 {
				return fmt.Errorf("obs: heatmap histogram %q missing from lifetime registry (heatmap count %d)", hpath, total.SizeCount)
			}
			continue
		}
		if sm.Count != total.SizeCount || sm.Sum != total.SizeSum {
			return fmt.Errorf("obs: heatmap histogram %q: regions sum to count=%d sum=%d, lifetime count=%d sum=%d",
				hpath, total.SizeCount, total.SizeSum, sm.Count, sm.Sum)
		}
		if len(sm.Counts) != heatmap.NumSizeBuckets {
			return fmt.Errorf("obs: heatmap histogram %q bucket-shape mismatch vs lifetime", hpath)
		}
		for i, v := range total.SizeCounts {
			if sm.Counts[i] != v {
				return fmt.Errorf("obs: heatmap histogram %q bucket %d: regions sum to %d, lifetime %d",
					hpath, i, v, sm.Counts[i])
			}
		}
	}
	return nil
}
