package obs

import (
	"fmt"
	"sort"

	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// Verify runs the conservation audit of every armed recorder against the
// lifetime sinks: attr conservation (At), VerifyTimeline (TL) and
// VerifyHeatmap (Heat). An unarmed recorder's empty snapshot passes its
// audit trivially, so Verify is nil-safe and needs no per-recorder
// switch. Every export of observation artifacts runs it first, so an
// artifact never reports time or events the lifetime sinks do not.
func (o *Observer) Verify() error {
	if o == nil {
		return nil
	}
	reg, at := o.Reg.Snapshot(), o.At.Snapshot()
	if err := at.Conserved(); err != nil {
		return fmt.Errorf("attr conservation: %w", err)
	}
	if err := VerifyTimeline(o.TL.Snapshot(), reg, at); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if err := VerifyHeatmap(o.Heat.Snapshot(), reg, at); err != nil {
		return fmt.Errorf("heatmap: %w", err)
	}
	return nil
}

// VerifyTimeline checks the timeline conservation invariant against the
// lifetime sinks: for every counter and histogram path present in the
// timeline, the sum of all window deltas (across every group) must equal
// the lifetime registry value exactly, and for every (benchmark, kind)
// attr class, the summed window deltas must equal the lifetime attr
// aggregate component by component. Paths that never appear in the
// timeline (engine.* counters bumped outside runs, gauges) are exempt by
// construction. Observer.Verify runs it before any artifact is exported.
func VerifyTimeline(tl timeline.Snapshot, reg Snapshot, at attr.Snapshot) error {
	bypath := make(map[string]Sample, len(reg.Samples))
	for _, sm := range reg.Samples {
		bypath[sm.Path] = sm
	}
	// Deterministic error selection: check paths in sorted order.
	counters := tl.CounterTotals()
	for _, path := range sortedKeys(counters) {
		total := counters[path]
		sm, ok := bypath[path]
		if !ok || sm.Kind != "counter" {
			return fmt.Errorf("obs: timeline counter %q missing from lifetime registry", path)
		}
		if uint64(sm.Value) != total {
			return fmt.Errorf("obs: timeline counter %q: window deltas sum to %d, lifetime %d", path, total, sm.Value)
		}
	}
	hists, err := tl.HistTotals()
	if err != nil {
		return err
	}
	for _, path := range sortedKeys(hists) {
		total := hists[path]
		sm, ok := bypath[path]
		if !ok || sm.Kind != "histogram" {
			return fmt.Errorf("obs: timeline histogram %q missing from lifetime registry", path)
		}
		if sm.Count != total.Count || sm.Sum != total.Sum {
			return fmt.Errorf("obs: timeline histogram %q: window deltas sum to count=%d sum=%d, lifetime count=%d sum=%d",
				path, total.Count, total.Sum, sm.Count, sm.Sum)
		}
		if len(sm.Counts) != len(total.Counts) {
			return fmt.Errorf("obs: timeline histogram %q bucket-shape mismatch vs lifetime", path)
		}
		for i := range sm.Counts {
			if sm.Counts[i] != total.Counts[i] {
				return fmt.Errorf("obs: timeline histogram %q bucket %d: window deltas sum to %d, lifetime %d",
					path, i, total.Counts[i], sm.Counts[i])
			}
		}
	}
	lifetime := attrClasses(at)
	for _, g := range tl.Groups {
		totals := g.AttrTotals()
		for cl := attr.Class(0); cl < attr.NumClasses; cl++ {
			t := totals[cl]
			if t.Count == 0 && t.TotalPS == 0 {
				continue
			}
			lc, ok := lifetime[[3]string{g.Benchmark, g.Kind, cl.String()}]
			if !ok {
				return fmt.Errorf("obs: timeline attr %s/%s %s missing from lifetime recorder", g.Benchmark, g.Kind, cl)
			}
			if lc.Count != t.Count || lc.TotalPS != t.TotalPS {
				return fmt.Errorf("obs: timeline attr %s/%s %s: window deltas sum to count=%d total=%d, lifetime count=%d total=%d",
					g.Benchmark, g.Kind, cl, t.Count, t.TotalPS, lc.Count, lc.TotalPS)
			}
			for c := range t.CompPS {
				if lc.CompPS[c] != t.CompPS[c] {
					return fmt.Errorf("obs: timeline attr %s/%s %s component %s: window deltas sum to %d, lifetime %d",
						g.Benchmark, g.Kind, cl, attr.Component(c), t.CompPS[c], lc.CompPS[c])
				}
			}
		}
	}
	return nil
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
// Observer.Verify runs it before any artifact is exported.
func VerifyHeatmap(hm heatmap.Snapshot, reg Snapshot, at attr.Snapshot) error {
	lifetime := attrClasses(at)
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
			lc, ok := lifetime[[3]string{g.Benchmark, g.Kind, cl.String()}]
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
	kinds := hm.KindTotals()
	for _, kind := range sortedKeys(kinds) {
		total := kinds[kind]
		paths := heatCounterPaths(kind)
		for _, path := range sortedKeys(paths) {
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

// attrClasses indexes an attr snapshot's class aggregates by (benchmark,
// kind, class).
func attrClasses(at attr.Snapshot) map[[3]string]attr.ClassSnapshot {
	m := map[[3]string]attr.ClassSnapshot{}
	for _, g := range at.Groups {
		for _, cs := range g.Classes {
			m[[3]string{g.Benchmark, g.Kind, cs.Class}] = cs
		}
	}
	return m
}

// sortedKeys returns m's keys in ascending order, so a verifier that can
// fail on several paths always names the same one.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
