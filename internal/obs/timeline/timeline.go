// Package timeline turns the lifetime aggregates of internal/obs into a
// deterministic time-series over *simulated* time: counters, histograms,
// and latency-attribution classes are rolled over fixed windows (default
// 1ms of simulated time), producing per-window deltas keyed by the
// integer-picosecond window start.
//
// The recorder is a pure accumulator. Per-run delta computation lives in
// obs.RunView, which hands finished window deltas to Add; every Add
// is a commutative fold on the shared fold core, and Snapshot sorts
// groups by (benchmark, kind), windows by start, and entries by path — so
// the rendered series is byte-identical at any worker count.
//
// Window semantics (pinned by TestWindowStartEdge): a window with start k
// covers the half-open-below interval (k, k+width] — an event exactly on
// a window edge lands in the EARLIER window. Simulated time 0 (placement
// is atomic, no time elapses) belongs to window 0.
//
// Like the registry and the attr recorder, a timeline recorder rides
// obs.Observer outside the experiment engine's memo key: observation
// must never change what a run computes. Construction is a cmd-layer
// decision — the tmcclint obs-sink-purity rule forbids internal/ (outside
// internal/obs) from calling NewRecorder directly.
package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/fold"
)

// DefaultWindow is the default window width: 1ms of simulated time.
const DefaultWindow = config.Millisecond

// WindowStart returns the start (in integer picoseconds) of the window
// holding simulated time t under the given width. Windows cover
// (start, start+width], so t exactly on an edge belongs to the earlier
// window; t <= 0 (placement happens atomically at t=0) maps to window 0.
func WindowStart(t, width config.Time) int64 {
	if t <= 0 {
		return 0
	}
	return int64((t - 1) / width * width)
}

// Edge is the forward-only window clock every per-run hook (timeline
// flush, heatmap residency sweep, RAS policy tick, CTE patrol) uses to
// detect window edges. It starts in window 0 and only moves forward, so a
// time behind the current window (a nested background access replaying an
// earlier timestamp) never re-fires an edge.
type Edge struct {
	width config.Time
	start int64
}

// NewEdge returns an edge clock over windows of the given width, sitting
// in window 0.
func NewEdge(width config.Time) Edge { return Edge{width: width} }

// Cross reports whether t lies in a later window than the current one,
// and if so moves the clock there.
func (e *Edge) Cross(t config.Time) bool {
	w := WindowStart(t, e.width)
	if w <= e.start {
		return false
	}
	e.start = w
	return true
}

// Start returns the start of the current window.
func (e *Edge) Start() int64 { return e.start }

// CounterDelta is one counter's increment inside one window.
type CounterDelta struct {
	Path  string `json:"path"`
	Delta uint64 `json:"delta"`
}

// HistDelta is one histogram's per-window increment: observation count,
// value sum, and per-bucket counts (Counts has one more entry than
// Bounds — the overflow bucket), exactly the shape of an obs histogram
// sample minus its history.
type HistDelta struct {
	Path   string   `json:"path"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// AttrDelta is one attribution class's per-window increment for a
// (benchmark, kind) group: access count, summed measured latency, and the
// per-component sums in attr.Component order. The attr conservation
// invariant holds per window: sum(CompPS) - 2*CompPS[COverlap] == TotalPS,
// because every access is recorded whole into exactly one window.
type AttrDelta struct {
	Class   attr.Class `json:"class"`
	Count   uint64     `json:"count"`
	TotalPS int64      `json:"totalPS"`
	CompPS  []int64    `json:"compPS"`
}

// Conserved reports whether the class delta satisfies the attr
// conservation invariant (components at full duration, overlap credit
// subtracted twice against cteParallel's inclusion).
func (d AttrDelta) Conserved() bool {
	var sum int64
	for c, v := range d.CompPS {
		if attr.Component(c) == attr.COverlap {
			sum -= v
		} else {
			sum += v
		}
	}
	return sum == d.TotalPS
}

// Delta is one finished window's worth of increments for one run, built
// by obs.RunView and folded into the recorder by Add.
type Delta struct {
	Counters []CounterDelta
	Hists    []HistDelta
	Attr     []AttrDelta
}

// Empty reports whether the delta carries nothing worth recording.
func (d *Delta) Empty() bool {
	return len(d.Counters) == 0 && len(d.Hists) == 0 && len(d.Attr) == 0
}

// histAccum accumulates one histogram path's deltas within a window.
type histAccum struct {
	bounds []int64
	counts []uint64
	count  uint64
	sum    int64
}

// attrAccum accumulates one class's deltas within a window.
type attrAccum struct {
	count   uint64
	totalPS int64
	comp    [attr.NumComponents]int64
}

// window is one accumulated window of a group's series.
type window struct {
	counters map[string]uint64
	hists    map[string]*histAccum
	attrs    [attr.NumClasses]attrAccum
	attrSeen [attr.NumClasses]bool
}

// Recorder accumulates per-window deltas for every (benchmark, kind)
// group observed in a process, keyed by window start on the shared
// commutative-fold core (package fold), so the accumulated state is
// independent of run interleaving. A nil *Recorder ignores every
// operation and reports zero width.
type Recorder struct {
	width config.Time
	core  fold.Recorder[int64, window]
}

// NewRecorder returns an empty recorder with the given window width;
// width <= 0 selects DefaultWindow.
func NewRecorder(width config.Time) *Recorder {
	if width <= 0 {
		width = DefaultWindow
	}
	return &Recorder{width: width}
}

// Width returns the window width (0 on nil).
func (r *Recorder) Width() config.Time {
	if r == nil {
		return 0
	}
	return r.width
}

// Add folds one window delta into the (bench, kind) series; nil-safe.
// It errors (without partial effects on the offending entry) when a
// histogram's bucket shape disagrees with what the window already holds
// or an attr delta carries the wrong component count — both mean caller
// corruption, never data.
func (r *Recorder) Add(bench, kind string, win int64, d *Delta) error {
	if r == nil || d.Empty() {
		return nil
	}
	var err error
	r.core.Fold(fold.Group{Benchmark: bench, Kind: kind}, win, func(w *window) { err = w.add(d) })
	if err != nil {
		return fmt.Errorf("timeline: %s/%s window %d: %w", bench, kind, win, err)
	}
	return nil
}

// add folds d into the window.
func (w *window) add(d *Delta) error {
	if w.counters == nil {
		w.counters, w.hists = map[string]uint64{}, map[string]*histAccum{}
	}
	for _, cd := range d.Counters {
		w.counters[cd.Path] += cd.Delta
	}
	for _, hd := range d.Hists {
		h, ok := w.hists[hd.Path]
		if !ok {
			h = &histAccum{
				bounds: append([]int64(nil), hd.Bounds...),
				counts: make([]uint64, len(hd.Counts)),
			}
			w.hists[hd.Path] = h
		}
		if !slices.Equal(h.bounds, hd.Bounds) || len(h.counts) != len(hd.Counts) {
			return fmt.Errorf("histogram %q bucket shape mismatch", hd.Path)
		}
		for i, n := range hd.Counts {
			h.counts[i] += n
		}
		h.count += hd.Count
		h.sum += hd.Sum
	}
	for _, ad := range d.Attr {
		if ad.Class < 0 || ad.Class >= attr.NumClasses || len(ad.CompPS) != int(attr.NumComponents) {
			return fmt.Errorf("malformed attr delta (class %d, %d components)", ad.Class, len(ad.CompPS))
		}
		a := &w.attrs[ad.Class]
		w.attrSeen[ad.Class] = true
		a.count += ad.Count
		a.totalPS += ad.TotalPS
		for c, v := range ad.CompPS {
			a.comp[c] += v
		}
	}
	return nil
}

// Window is one window of a group series in a snapshot: entries sort by
// path (counters, hists) and class order (attr), so the rendered series
// is deterministic.
type Window struct {
	StartPS  int64          `json:"startPS"`
	Counters []CounterDelta `json:"counters,omitempty"`
	Hists    []HistDelta    `json:"hists,omitempty"`
	Attr     []AttrDelta    `json:"attr,omitempty"`
}

// GroupSeries is one (benchmark, kind)'s windows, ascending by start.
type GroupSeries struct {
	Benchmark string   `json:"benchmark"`
	Kind      string   `json:"kind"`
	Windows   []Window `json:"windows"`
}

// Snapshot is a deterministic point-in-time copy of the recorder.
type Snapshot struct {
	WidthPS int64         `json:"widthPS,omitempty"`
	Groups  []GroupSeries `json:"groups,omitempty"`
}

// Snapshot copies the recorder's state; nil-safe (empty snapshot).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{WidthPS: int64(r.width)}
	r.core.Walk(func(g fold.Group, _ *window, wins []fold.Entry[int64, window]) {
		gs := GroupSeries{Benchmark: g.Benchmark, Kind: g.Kind}
		for _, e := range wins {
			w := e.Acc
			ws := Window{StartPS: e.Key}
			for p, v := range w.counters {
				ws.Counters = append(ws.Counters, CounterDelta{Path: p, Delta: v})
			}
			sort.Slice(ws.Counters, func(i, j int) bool { return ws.Counters[i].Path < ws.Counters[j].Path })
			for p, h := range w.hists {
				ws.Hists = append(ws.Hists, HistDelta{
					Path:   p,
					Count:  h.count,
					Sum:    h.sum,
					Bounds: append([]int64(nil), h.bounds...),
					Counts: append([]uint64(nil), h.counts...),
				})
			}
			sort.Slice(ws.Hists, func(i, j int) bool { return ws.Hists[i].Path < ws.Hists[j].Path })
			for cl := attr.Class(0); cl < attr.NumClasses; cl++ {
				if !w.attrSeen[cl] {
					continue
				}
				a := &w.attrs[cl]
				ws.Attr = append(ws.Attr, AttrDelta{
					Class:   cl,
					Count:   a.count,
					TotalPS: a.totalPS,
					CompPS:  append([]int64(nil), a.comp[:]...),
				})
			}
			gs.Windows = append(gs.Windows, ws)
		}
		s.Groups = append(s.Groups, gs)
	})
	return s
}

// InterpQuantile estimates the q-quantile (clamped to [0, 1]) of a
// fixed-bucket histogram by linear interpolation inside the bucket
// holding the target rank; the overflow bucket reports the last finite
// bound as a floor. Zero-count or bound-less histograms report 0, never
// NaN. obs.Sample.Quantile delegates here so the lifetime and windowed
// quantiles share one implementation.
func InterpQuantile(bounds []int64, counts []uint64, count uint64, q float64) float64 {
	if count == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(count)
	var cum uint64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) < target {
			cum += n
			continue
		}
		if i >= len(bounds) {
			return float64(bounds[len(bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(bounds[i-1])
		} else if bounds[0] < 0 {
			lo = float64(bounds[0])
		}
		hi := float64(bounds[i])
		frac := (target - float64(cum)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return float64(bounds[len(bounds)-1])
}

// Quantile interpolates the q-quantile of the window's bucket deltas.
func (h HistDelta) Quantile(q float64) float64 {
	return InterpQuantile(h.Bounds, h.Counts, h.Count, q)
}

// CSVHeader is the column layout WriteCSV emits; EXPERIMENTS.md keys off
// these names and positions.
// Series discriminates the row type: "counter" rows fill count with the
// window delta; "histogram" rows fill count/sum and the interpolated
// quantiles; "attr" rows come in pairs of forms — "<class>.total" (count,
// sum=totalPS) and "<class>.<component>" (sum=componentPS).
var CSVHeader = []string{
	"benchmark", "kind", "windowStartPS", "series", "name",
	"count", "sum", "p50", "p95", "p99",
}

// WriteCSV renders the snapshot as one row per window x entry, groups by
// (benchmark, kind), windows ascending — the `tmccsim -timeline` surface.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	row := make([]string, len(CSVHeader))
	emit := func(bench, kind string, win int64, series, name string, count, sum, p50, p95, p99 string) error {
		row[0], row[1] = bench, kind
		row[2] = strconv.FormatInt(win, 10)
		row[3], row[4] = series, name
		row[5], row[6], row[7], row[8], row[9] = count, sum, p50, p95, p99
		return cw.Write(row)
	}
	q := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, g := range s.Groups {
		for _, win := range g.Windows {
			for _, cd := range win.Counters {
				if err := emit(g.Benchmark, g.Kind, win.StartPS, "counter", cd.Path,
					strconv.FormatUint(cd.Delta, 10), "", "", "", ""); err != nil {
					return err
				}
			}
			for _, hd := range win.Hists {
				if err := emit(g.Benchmark, g.Kind, win.StartPS, "histogram", hd.Path,
					strconv.FormatUint(hd.Count, 10), strconv.FormatInt(hd.Sum, 10),
					q(hd.Quantile(0.50)), q(hd.Quantile(0.95)), q(hd.Quantile(0.99))); err != nil {
					return err
				}
			}
			for _, ad := range win.Attr {
				cls := ad.Class.String()
				if err := emit(g.Benchmark, g.Kind, win.StartPS, "attr", cls+".total",
					strconv.FormatUint(ad.Count, 10), strconv.FormatInt(ad.TotalPS, 10), "", "", ""); err != nil {
					return err
				}
				for c, v := range ad.CompPS {
					if err := emit(g.Benchmark, g.Kind, win.StartPS, "attr",
						cls+"."+attr.Component(c).String(),
						"", strconv.FormatInt(v, 10), "", "", ""); err != nil {
						return err
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// CounterTotals sums every counter path's window deltas across all groups
// — the quantity the conservation audit compares against the lifetime
// registry value.
func (s Snapshot) CounterTotals() map[string]uint64 {
	out := map[string]uint64{}
	for _, g := range s.Groups {
		for _, w := range g.Windows {
			for _, cd := range w.Counters {
				out[cd.Path] += cd.Delta
			}
		}
	}
	return out
}

// HistTotals sums every histogram path's window deltas across all groups,
// erroring on a bucket-shape mismatch between windows.
func (s Snapshot) HistTotals() (map[string]HistDelta, error) {
	out := map[string]HistDelta{}
	for _, g := range s.Groups {
		for _, w := range g.Windows {
			for _, hd := range w.Hists {
				t, ok := out[hd.Path]
				if !ok {
					out[hd.Path] = HistDelta{
						Path:   hd.Path,
						Count:  hd.Count,
						Sum:    hd.Sum,
						Bounds: append([]int64(nil), hd.Bounds...),
						Counts: append([]uint64(nil), hd.Counts...),
					}
					continue
				}
				if !slices.Equal(t.Bounds, hd.Bounds) || len(t.Counts) != len(hd.Counts) {
					return nil, fmt.Errorf("timeline: histogram %q bucket shape differs across windows", hd.Path)
				}
				t.Count += hd.Count
				t.Sum += hd.Sum
				for i, n := range hd.Counts {
					t.Counts[i] += n
				}
				out[hd.Path] = t
			}
		}
	}
	return out, nil
}

// AttrTotals sums one group's attr window deltas per class, indexed by
// class; a class never seen reports a zero Count.
func (g GroupSeries) AttrTotals() [attr.NumClasses]AttrDelta {
	var out [attr.NumClasses]AttrDelta
	for cl := range out {
		out[cl].Class = attr.Class(cl)
		out[cl].CompPS = make([]int64, attr.NumComponents)
	}
	for _, w := range g.Windows {
		for _, ad := range w.Attr {
			t := &out[ad.Class]
			t.Count += ad.Count
			t.TotalPS += ad.TotalPS
			for c, v := range ad.CompPS {
				t.CompPS[c] += v
			}
		}
	}
	return out
}
