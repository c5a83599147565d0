// Package obs is the simulator-wide observability layer: a hierarchical
// metrics registry (counters, gauges, fixed-bucket histograms keyed by
// dotted paths such as "mc.tmcc.ctecache.hit") and a cycle-domain event
// tracer whose spans are keyed by *simulated* time (config.Time,
// picoseconds), never the wall clock.
//
// Design rules, in priority order:
//
//  1. Disabled observability costs nothing. Every handle type (*Counter,
//     *Gauge, *Histogram, *Tracer, *Observer) is fully inert as a nil
//     pointer: the hot-path methods start with a nil receiver check, so
//     components hold the handles unconditionally and the disabled path is
//     one predictable branch — no interface dispatch, no allocation.
//  2. Enabling observability must not perturb simulation results. The
//     registry and tracer are write-only sinks from the simulator's point
//     of view: nothing in internal/ reads them back into timing or
//     placement decisions, and internal/sim's determinism tests pin
//     byte-identical Metrics with observation on and off.
//  3. internal/ stays wall-clock-free and sink-free. Spans carry simulated
//     timestamps; registry snapshots and trace files are written through
//     io.Writers constructed and injected at the cmd layer (the tmcclint
//     rule obs-sink-purity enforces this for every internal package except
//     this one).
//
// A simulated event is counted once, in a plain field of the component
// that sees it; the component registers the field with its run's RunView,
// which samples it into the registry (see RunView). Histograms and
// process-wide instruments are registered at construction (get-or-create
// by path, so repeated construction aggregates into the same instrument)
// and fed inline. Snapshots are deterministic: samples sort by path.
package obs

import (
	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// Span categories (the "cat" field of emitted trace events). Keep these in
// sync with the taxonomy table in DESIGN.md's Observability section.
const (
	CatPhase     = "phase"          // placement / warmup / measure run phases
	CatWalk      = "walk"           // page walks (1D and 2D)
	CatCTEFetch  = "cte.fetch"      // serial CTE fetches from DRAM
	CatML2       = "ml2.decompress" // demand ML2 reads (decompress + respond)
	CatMigration = "migration"      // ML1 -> ML2 eviction compress+writeout
	CatPressure  = "pressure"       // capacity-pressure emergency migration bursts
)

// TIDMC is the trace thread id used for memory-controller-side spans;
// core-side spans use the core id (0..cores-1), which stays far below it.
const TIDMC = 255

// Observer bundles the registry, tracer, and latency-attribution
// recorder one process (or one test) observes with. A nil *Observer is
// fully inert; so is an Observer with nil fields, which lets callers
// enable metrics without tracing or attribution and vice versa.
type Observer struct {
	Reg *Registry
	Tr  *Tracer
	At  *attr.Recorder
	// TL, when non-nil, arms the windowed timeline: each observed run's
	// RunView folds per-window deltas of its private registry and attr
	// recorder into TL and merges them into Reg/At. Like At, TL rides
	// outside the experiment engine's memo key.
	TL *timeline.Recorder
	// Heat, when non-nil, arms the address-space heatmap: each observed
	// run accumulates per-region heat in its RunView and folds it into
	// Heat at run close. Like TL, Heat rides outside the memo key.
	Heat *heatmap.Recorder

	// view is the run view this observer was derived for (RunView);
	// nil on the process observer.
	view *RunView
}

// New returns an Observer with a fresh registry, a default-capacity
// tracer, and an attribution recorder.
func New() *Observer {
	return &Observer{Reg: NewRegistry(), Tr: NewTracer(0), At: attr.NewRecorder()}
}

// Counter registers (or finds) the counter at path; nil-safe.
func (o *Observer) Counter(path string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(path)
}

// Gauge registers (or finds) the gauge at path; nil-safe.
func (o *Observer) Gauge(path string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(path)
}

// Histogram registers (or finds) the histogram at path; nil-safe. bounds
// are inclusive upper bounds; one overflow bucket is added past the last.
func (o *Observer) Histogram(path string, bounds []int64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(path, bounds)
}

// Span emits one completed interval in simulated time; nil-safe.
func (o *Observer) Span(cat, name string, tid int, start, end config.Time) {
	if o == nil {
		return
	}
	o.Tr.Emit(cat, name, tid, start, end)
}

// AttrGroup returns the latency-attribution group for one (benchmark,
// MC kind) pair; nil (and therefore inert) when attribution is off.
func (o *Observer) AttrGroup(bench, kind string) *attr.Group {
	if o == nil {
		return nil
	}
	return o.At.Group(bench, kind)
}

// SyncDerived refreshes registry values derived from the other sinks —
// the obs.trace.dropped gauge mirroring the tracer's overwrite count and
// obs.trace.retained mirroring the ring's current utilization. Call it
// before taking a snapshot that should carry them.
func (o *Observer) SyncDerived() {
	if o == nil || o.Reg == nil || o.Tr == nil {
		return
	}
	o.Reg.Gauge("obs.trace.dropped").Set(int64(o.Tr.Dropped()))
	o.Reg.Gauge("obs.trace.retained").Set(int64(o.Tr.Retained()))
}
