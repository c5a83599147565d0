// Package attr is the critical-path latency attribution layer: it breaks
// each simulated memory access's end-to-end latency into the components
// the paper's latency figures are about — page walk, CTE-cache lookup,
// serialized CTE DRAM fetch (Compresso, Fig. 4 top), speculative parallel
// CTE fetch with its overlap credit (TMCC, Fig. 4 bottom), ML1 vs ML2
// data fetch, ML2 decompression, and migration-buffer stalls.
//
// The layer's contract is a conservation invariant: for every access,
//
//	sum(components except overlapCredit) - overlapCredit == Total
//
// i.e. components are accounted at their full (un-overlapped) durations
// and the time hidden by speculate-and-verify parallelism is an explicit
// negative contribution, so "how much latency did overlap save" is a
// printed column instead of an inference. internal/check audits the
// invariant per recorded access under the tmccdebug build tag; the
// cmd-layer exporters re-verify it on aggregated snapshots.
//
// Like the rest of internal/obs, attribution is a write-only sink: the
// simulator fills an Access scratch and hands it to a Group, nothing
// reads attribution back into timing decisions, and every aggregation
// uses commutative atomic adds so totals are identical at any worker
// count. A nil *Recorder or *Group ignores every operation, keeping the
// flags-off path one predictable branch.
package attr

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"tmcc/internal/check"
	"tmcc/internal/config"
)

// Component is one critical-path latency component. Components are
// accounted at their full durations; COverlap is the credit subtracted
// for time two fetches spent in flight simultaneously.
type Component int

const (
	CWalk     Component = iota // TLB-miss page-walk chain (PTB fetches)
	CCacheHit                  // L1/L2/L3 hit service latency
	//tmcclint:allow attr-registration (zero-latency in the current model: the CTE cache is queried combinationally, so no MC ever adds time here; the column is kept so CSV schemas stay stable when a future model prices the lookup)
	CCTELookup // CTE-cache lookup

	CCTESerial     // blocking CTE fetch from DRAM in front of the data access
	CCTEParallel   // speculative CTE fetch, full duration (overlaps the data fetch)
	COverlap       // overlap credit: time hidden by speculate-and-verify (subtracted)
	CVerifyRedo    // re-executed access after a failed speculation verify
	CDataML1       // data fetch served by uncompressed ML1
	CDataML2       // data fetch served by compressed ML2 (reads of compressed chunks)
	CDecompress    // ML2 half-page decompression latency
	CMigStall      // stall waiting for a migration-buffer slot
	CPressureStall // capacity-pressure stall: emergency force-migration blocking a placement
	CNoC           // network-on-chip hop between LLC and MC
	CDegraded      // RAS degraded-mode overhead: writethrough + scrub cycles while the breaker is open
	NumComponents
)

var componentNames = [NumComponents]string{
	"walk", "cacheHit", "cteLookup", "cteSerial", "cteParallel",
	"overlapCredit", "verifyRedo", "dataML1", "dataML2", "decompress",
	"migStall", "pressureStall", "noc", "degraded",
}

// String returns the stable column name used in CSV headers and flame
// frames.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Class partitions recorded accesses by why the memory system was asked:
// demand loads/stores (including their walk time), page-walker PTB
// fetches, dirty-line writebacks, and CTE-driven prefetches. Classes
// overlap by construction — a PTB fetch is also inside some demand
// access's walk component — so per-class breakdowns are reported side by
// side, never summed across classes. Each class conserves independently.
type Class int

const (
	ClassDemand    Class = iota // demand load/store, end to end (walk + access)
	ClassPTB                    // page-walker PTB fetch
	ClassWriteback              // dirty L3 eviction written back to the MC
	ClassPrefetch               // walk-triggered CTE prefetch
	NumClasses
)

var classNames = [NumClasses]string{"demand", "ptb", "writeback", "prefetch"}

// String returns the stable class name used in reports.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Access is the per-access scratch record: one measured end-to-end
// latency and its component decomposition. The MC fills the memory-side
// components during Access; the simulator folds in walk/NoC time, sets
// Total and Class, and hands the finished record to a Group.
// All durations are config.Picos — integer simulated picoseconds — so
// the conservation sum is exact; cycle counts (config.Cycles) must be
// scaled with Cycles.Dur before they enter a component.
type Access struct {
	Class Class
	Total config.Picos
	Comp  [NumComponents]config.Picos
}

// Reset clears the record for reuse.
func (a *Access) Reset() {
	*a = Access{}
}

// Add accumulates d into component c.
func (a *Access) Add(c Component, d config.Picos) {
	a.Comp[c] += d
}

// AttributedSum returns the conserved sum: every component at full
// duration, minus the overlap credit (which therefore counts twice
// against CCTEParallel's full duration — once because it is excluded
// from the positive sum, once as the subtraction).
func (a *Access) AttributedSum() config.Picos {
	var s config.Picos
	for c := Component(0); c < NumComponents; c++ {
		if c == COverlap {
			continue
		}
		s += a.Comp[c]
	}
	return s - a.Comp[COverlap]
}

// classRow is one class's aggregate, padded out to a multiple of the
// 128-byte span two adjacent cache lines cover: parallel workers recording
// into different classes of the same group (or different runs of the same
// benchmark/kind) then contend on distinct lines instead of false-sharing
// one, which is part of what made `-j 4` lose to `-j 1`.
type classRow struct {
	count atomic.Uint64
	total atomic.Int64
	comp  [NumComponents]atomic.Int64
	_     [classRowPad]byte
}

const (
	classRowBytes = (2 + int(NumComponents)) * 8
	classRowPad   = (classRowBytes+127)/128*128 - classRowBytes
)

// Group aggregates Access records for one (benchmark, MC kind) pair.
// All fields are atomics: Record is lock-free and commutative, so
// aggregated totals are independent of execution order and worker
// count. A nil *Group ignores Record.
type Group struct {
	rows [NumClasses]classRow
}

// Record folds one finished access into the group. Under tmccdebug it
// asserts the conservation invariant on the spot, attributing the
// failure to the class and the off-by amount.
func (g *Group) Record(a *Access) {
	if g == nil {
		return
	}
	if check.Enabled {
		check.Assert(a.AttributedSum() == a.Total,
			"attr: %s access violates conservation: components sum to %d, total %d",
			a.Class, a.AttributedSum(), a.Total)
	}
	row := &g.rows[a.Class]
	row.count.Add(1)
	row.total.Add(int64(a.Total))
	for c := Component(0); c < NumComponents; c++ {
		if d := a.Comp[c]; d != 0 {
			row.comp[c].Add(int64(d))
		}
	}
}

// Drain moves class cl's aggregate out of src, which only the calling
// goroutine records into, adds it to g with the same commutative atomic
// adds Record uses, and returns it (Count 0 when src recorded none). A
// nil g only drains: run views drain their private group this way, so
// lifetime aggregates stay identical at any worker count.
func (g *Group) Drain(src *Group, cl Class) ClassSnapshot {
	row := &src.rows[cl]
	cs := ClassSnapshot{Class: cl.String(), Count: row.count.Swap(0)}
	if cs.Count == 0 {
		return cs
	}
	cs.TotalPS, cs.CompPS = row.total.Swap(0), make([]int64, NumComponents)
	for c := range row.comp {
		cs.CompPS[c] = row.comp[c].Swap(0)
	}
	if g != nil {
		dst := &g.rows[cl]
		dst.count.Add(cs.Count)
		dst.total.Add(cs.TotalPS)
		for c, v := range cs.CompPS {
			if v != 0 {
				dst.comp[c].Add(v)
			}
		}
	}
	return cs
}

type groupKey struct {
	bench string
	kind  string
}

// Recorder owns the per-(benchmark, kind) groups for one process. Group
// registration is get-or-create under a mutex; the hot path (Record)
// never touches it. A nil *Recorder hands out nil groups, keeping the
// disabled path inert.
type Recorder struct {
	mu     sync.Mutex
	groups map[groupKey]*Group
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{groups: map[groupKey]*Group{}}
}

// Group returns the group for (bench, kind), creating it on first use;
// nil-safe.
func (r *Recorder) Group(bench, kind string) *Group {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := groupKey{bench, kind}
	g, ok := r.groups[k]
	if !ok {
		g = &Group{}
		r.groups[k] = g
	}
	return g
}

// ClassSnapshot is one class's aggregate inside a group snapshot. CompPS
// has NumComponents entries in Component order; TotalPS is the summed
// measured latency, all in simulated picoseconds.
type ClassSnapshot struct {
	Class   string  `json:"class"`
	Count   uint64  `json:"count"`
	TotalPS int64   `json:"totalPS"`
	CompPS  []int64 `json:"compPS"`
}

// GroupSnapshot is one (benchmark, kind)'s breakdown.
type GroupSnapshot struct {
	Benchmark string          `json:"benchmark"`
	Kind      string          `json:"kind"`
	Classes   []ClassSnapshot `json:"classes"`
}

// Snapshot is a deterministic point-in-time copy of a recorder: groups
// sort by (benchmark, kind), classes by Class order, and only classes
// with at least one recorded access appear.
type Snapshot struct {
	Groups []GroupSnapshot `json:"groups"`
}

// Snapshot copies the recorder's state; nil-safe.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	keys := make([]groupKey, 0, len(r.groups))
	for k := range r.groups {
		keys = append(keys, k)
	}
	groups := make(map[groupKey]*Group, len(r.groups))
	for k, g := range r.groups {
		groups[k] = g
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bench != keys[j].bench {
			return keys[i].bench < keys[j].bench
		}
		return keys[i].kind < keys[j].kind
	})
	var s Snapshot
	for _, k := range keys {
		g := groups[k]
		gs := GroupSnapshot{Benchmark: k.bench, Kind: k.kind}
		for cl := Class(0); cl < NumClasses; cl++ {
			row := &g.rows[cl]
			n := row.count.Load()
			if n == 0 {
				continue
			}
			cs := ClassSnapshot{
				Class:   cl.String(),
				Count:   n,
				TotalPS: row.total.Load(),
				CompPS:  make([]int64, NumComponents),
			}
			for c := Component(0); c < NumComponents; c++ {
				cs.CompPS[c] = row.comp[c].Load()
			}
			gs.Classes = append(gs.Classes, cs)
		}
		if len(gs.Classes) > 0 {
			s.Groups = append(s.Groups, gs)
		}
	}
	return s
}

// AttributedSum returns the conserved component sum for one class
// aggregate (full durations minus overlap credit).
func (cs ClassSnapshot) AttributedSum() int64 {
	var sum int64
	for c, v := range cs.CompPS {
		if Component(c) == COverlap {
			sum -= v
		} else {
			sum += v
		}
	}
	return sum
}

// Conserved verifies the conservation invariant on every class of every
// group, returning a located error on the first violation. Aggregation
// preserves per-access conservation, so any mismatch means an
// attribution site lost or double-counted time.
func (s Snapshot) Conserved() error {
	for _, g := range s.Groups {
		for _, cs := range g.Classes {
			if got := cs.AttributedSum(); got != cs.TotalPS {
				return fmt.Errorf("attr: %s/%s %s: components sum to %d ps, total %d ps (off by %d)",
					g.Benchmark, g.Kind, cs.Class, got, cs.TotalPS, got-cs.TotalPS)
			}
		}
	}
	return nil
}

// Totals returns the snapshot-wide access count and summed latency —
// the two scalars the -stats JSON line carries.
func (s Snapshot) Totals() (accesses uint64, totalPS int64) {
	for _, g := range s.Groups {
		for _, cs := range g.Classes {
			accesses += cs.Count
			totalPS += cs.TotalPS
		}
	}
	return accesses, totalPS
}

// CSVHeader is the column layout WriteCSV emits; EXPERIMENTS.md keys off
// these names and positions.
var CSVHeader = []string{
	"benchmark", "kind", "class", "accesses", "totalPS",
	"walkPS", "cacheHitPS", "cteLookupPS", "cteSerialPS", "cteParallelPS",
	"overlapCreditPS", "verifyRedoPS", "dataML1PS", "dataML2PS",
	"decompressPS", "migStallPS", "pressureStallPS", "nocPS", "degradedPS",
}

// WriteCSV writes the snapshot as one row per (benchmark, kind, class)
// with per-component picosecond sums.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	row := make([]string, len(CSVHeader))
	for _, g := range s.Groups {
		for _, cs := range g.Classes {
			row[0] = g.Benchmark
			row[1] = g.Kind
			row[2] = cs.Class
			row[3] = strconv.FormatUint(cs.Count, 10)
			row[4] = strconv.FormatInt(cs.TotalPS, 10)
			for c := 0; c < int(NumComponents); c++ {
				row[5+c] = strconv.FormatInt(cs.CompPS[c], 10)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable renders the figure-style breakdown: one section per class,
// one row per (benchmark, kind), mean per-access nanoseconds per
// component plus the mean total. Zero-only columns are kept so the
// serial-vs-parallel CTE comparison always lines up across kinds.
func (s Snapshot) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for cl := Class(0); cl < NumClasses; cl++ {
		name := cl.String()
		any := false
		for _, g := range s.Groups {
			for _, cs := range g.Classes {
				if cs.Class == name {
					any = true
				}
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(tw, "[%s] mean ns/access\n", name)
		fmt.Fprint(tw, "benchmark\tkind\taccesses\ttotal")
		for c := Component(0); c < NumComponents; c++ {
			fmt.Fprintf(tw, "\t%s", c)
		}
		fmt.Fprintln(tw)
		for _, g := range s.Groups {
			for _, cs := range g.Classes {
				if cs.Class != name {
					continue
				}
				mean := func(ps int64) float64 {
					return float64(ps) / float64(cs.Count) / float64(config.Nanosecond)
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f", g.Benchmark, g.Kind, cs.Count, mean(cs.TotalPS))
				for c := Component(0); c < NumComponents; c++ {
					fmt.Fprintf(tw, "\t%.2f", mean(cs.CompPS[c]))
				}
				fmt.Fprintln(tw)
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
