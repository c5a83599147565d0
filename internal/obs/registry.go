package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"tmcc/internal/obs/timeline"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil *Counter ignores every operation.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins int64. A nil *Gauge ignores every operation.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// raise stores v when it exceeds the current value.
func (g *Gauge) raise(v int64) {
	for cur := g.v.Load(); v > cur && !g.v.CompareAndSwap(cur, v); cur = g.v.Load() {
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets: bounds[i] is the
// inclusive upper bound of bucket i, and one overflow bucket past the last
// bound catches the rest. Bounds are fixed at registration so Observe is
// allocation-free. A nil *Histogram ignores every operation.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a hierarchical instrument registry keyed by dotted paths.
// Registration (Counter/Gauge/Histogram) is get-or-create: the first call
// for a path creates the instrument, later calls return the same one, so
// repeated component construction aggregates into shared instruments.
// All methods are safe for concurrent use; the hot path (bumping an
// instrument) never touches the registry lock. A nil *Registry hands out
// nil instruments, keeping the whole layer inert.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter at path, creating it on first use.
func (r *Registry) Counter(path string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(path, "counter")
	c, ok := r.counters[path]
	if !ok {
		c = &Counter{}
		r.counters[path] = c
	}
	return c
}

// Gauge returns the gauge at path, creating it on first use.
func (r *Registry) Gauge(path string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(path, "gauge")
	g, ok := r.gauges[path]
	if !ok {
		g = &Gauge{}
		r.gauges[path] = g
	}
	return g
}

// Histogram returns the histogram at path, creating it on first use with
// the given bucket upper bounds (which must be sorted ascending). Bounds
// given on later calls for an existing path are ignored — the first
// registration wins.
func (r *Registry) Histogram(path string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(path, "histogram")
	h, ok := r.hists[path]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", path, bounds))
			}
		}
		h = &Histogram{
			bounds:  append([]int64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
		r.hists[path] = h
	}
	return h
}

// checkKind panics when path is already registered under a different kind
// (callers hold r.mu).
func (r *Registry) checkKind(path, kind string) {
	if kind != "counter" {
		if _, ok := r.counters[path]; ok {
			panic(fmt.Sprintf("obs: path %q already registered as counter, requested as %s", path, kind))
		}
	}
	if kind != "gauge" {
		if _, ok := r.gauges[path]; ok {
			panic(fmt.Sprintf("obs: path %q already registered as gauge, requested as %s", path, kind))
		}
	}
	if kind != "histogram" {
		if _, ok := r.hists[path]; ok {
			panic(fmt.Sprintf("obs: path %q already registered as histogram, requested as %s", path, kind))
		}
	}
}

// Sample is one instrument's state in a snapshot. Counters and gauges use
// Value; histograms use Count/Sum/Bounds/Counts, where Counts has one more
// entry than Bounds (the overflow bucket).
type Sample struct {
	Path   string   `json:"path"`
	Kind   string   `json:"kind"` // "counter" | "gauge" | "histogram"
	Value  int64    `json:"value,omitempty"`
	Count  uint64   `json:"count,omitempty"`
	Sum    int64    `json:"sum,omitempty"`
	Bounds []int64  `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
}

// Quantile estimates the q-quantile (q in [0, 1], clamped) of a
// histogram sample by linear interpolation inside the bucket holding the
// target rank. The first bucket interpolates from 0 (or from its bound
// when that is negative); the overflow bucket has no upper edge, so any
// rank landing there reports the last finite bound — a floor, clearly
// labeled by being exactly the largest boundary. Non-histogram samples
// and empty histograms report 0, never NaN. The interpolation itself is
// timeline.InterpQuantile, so lifetime samples and per-window deltas
// share one implementation.
func (s Sample) Quantile(q float64) float64 {
	if s.Kind != "histogram" {
		return 0
	}
	return timeline.InterpQuantile(s.Bounds, s.Counts, s.Count, q)
}

// Sub returns the element-wise difference s - prev for two samples of
// the same path and kind — the primitive the timeline's windowed deltas
// are built from. Histogram subtraction requires identical bucket
// shapes; a mismatch returns an error instead of panicking, since
// snapshots can come from files. Counter and gauge samples subtract
// Value.
func (s Sample) Sub(prev Sample) (Sample, error) {
	if s.Path != prev.Path || s.Kind != prev.Kind {
		return Sample{}, fmt.Errorf("obs: subtracting sample %s/%s from %s/%s", prev.Path, prev.Kind, s.Path, s.Kind)
	}
	out := Sample{Path: s.Path, Kind: s.Kind}
	if s.Kind != "histogram" {
		out.Value = s.Value - prev.Value
		return out, nil
	}
	if len(s.Bounds) != len(prev.Bounds) || len(s.Counts) != len(prev.Counts) {
		return Sample{}, fmt.Errorf("obs: histogram %q bucket-shape mismatch: %d/%d bounds, %d/%d buckets",
			s.Path, len(s.Bounds), len(prev.Bounds), len(s.Counts), len(prev.Counts))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != prev.Bounds[i] {
			return Sample{}, fmt.Errorf("obs: histogram %q bound %d differs: %d vs %d", s.Path, i, s.Bounds[i], prev.Bounds[i])
		}
	}
	out.Count = s.Count - prev.Count
	out.Sum = s.Sum - prev.Sum
	out.Bounds = append([]int64(nil), s.Bounds...)
	out.Counts = make([]uint64, len(s.Counts))
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return out, nil
}

// Snapshot is a point-in-time copy of every registered instrument, sorted
// by path — a stable, deterministic structure suitable for diffing.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot copies the registry's state. The result is sorted by path and
// independent of registration or bump order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for p, c := range r.counters {
		out = append(out, Sample{Path: p, Kind: "counter", Value: int64(c.Value())})
	}
	for p, g := range r.gauges {
		out = append(out, Sample{Path: p, Kind: "gauge", Value: g.Value()})
	}
	for p, h := range r.hists {
		counts := make([]uint64, len(h.buckets))
		for i := range h.buckets {
			counts[i] = h.buckets[i].Load()
		}
		out = append(out, Sample{
			Path: p, Kind: "histogram",
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]int64(nil), h.bounds...),
			Counts: counts,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return Snapshot{Samples: out}
}

// Merge folds a snapshot into the registry: counters add their value,
// gauges keep the larger of the two values (a new gauge starts at 0), and
// histograms add bucket-wise — get-or-create with the
// snapshot's bounds, erroring on a bucket-shape mismatch with an
// already-registered histogram. Every fold is commutative, so the run
// views' merges give the same registry in any run order. Nil-safe.
func (r *Registry) Merge(s Snapshot) error {
	if r == nil {
		return nil
	}
	for _, sm := range s.Samples {
		switch sm.Kind {
		case "counter":
			r.Counter(sm.Path).Add(uint64(sm.Value))
		case "gauge":
			r.Gauge(sm.Path).raise(sm.Value)
		case "histogram":
			h := r.Histogram(sm.Path, sm.Bounds)
			if len(h.bounds) != len(sm.Bounds) || len(h.buckets) != len(sm.Counts) {
				return fmt.Errorf("obs: merge: histogram %q bucket-shape mismatch", sm.Path)
			}
			for i := range h.bounds {
				if h.bounds[i] != sm.Bounds[i] {
					return fmt.Errorf("obs: merge: histogram %q bound %d differs: %d vs %d", sm.Path, i, h.bounds[i], sm.Bounds[i])
				}
			}
			for i, n := range sm.Counts {
				h.buckets[i].Add(n)
			}
			h.count.Add(sm.Count)
			h.sum.Add(sm.Sum)
		default:
			return fmt.Errorf("obs: merge: sample %q has unknown kind %q", sm.Path, sm.Kind)
		}
	}
	return nil
}

// Get returns the sample at path, if present.
func (s Snapshot) Get(path string) (Sample, bool) {
	for _, sm := range s.Samples {
		if sm.Path == path {
			return sm, true
		}
	}
	return Sample{}, false
}

// WriteJSON writes the snapshot as indented JSON to the injected sink.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decoding snapshot: %v", err)
	}
	return s, nil
}
