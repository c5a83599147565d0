package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/ras"
)

// tightOpts is the obs acceptance configuration: canneal under TMCC at a
// budget tight enough (80% of Compresso's natural usage) that the measured
// window exercises ML2 demand reads, migrations, speculation, and the CTE
// structures all at once.
func tightOpts(t *testing.T) Options {
	t.Helper()
	base := CompressoBudget("canneal", 42)
	if base == 0 {
		t.Fatal("CompressoBudget returned 0")
	}
	return Options{
		Benchmark:       "canneal",
		Kind:            mc.TMCC,
		BudgetPages:     base * 8 / 10,
		WarmupAccesses:  30000,
		MeasureAccesses: 30000,
		Seed:            42,
	}
}

// oneCoreDigests are SHA-256 digests of the "%+v" rendering of plain
// 1-core canneal Metrics (20000/20000 accesses, seed 7), captured from the
// batch loop as it stood with a dedicated single-core path. The heap loop
// now runs one core too; matching digests prove that path's removal was
// bit-exact.
var oneCoreDigests = map[mc.Kind]string{
	mc.TMCC:       "2fce1dc28379d269be6b1e570ebf3e2ddc7cabe6bac808750c278f958fd943bf",
	mc.OSInspired: "e79b7a867807ed5e7b62ecafd9fe40a0480df59dc7a505a9c68de3a760af60a8",
}

// armedObserver arms every observation sink: registry, tracer, attr,
// a 1us timeline, and the heatmap.
func armedObserver() *obs.Observer {
	ob := timelineObserver(config.Microsecond)
	ob.Heat = heatmap.NewRecorder(0, 0)
	return ob
}

// hookBundle is one per-run hook bundle and what a run armed with it must
// satisfy.
type hookBundle struct {
	opt     Options
	kinds   []mc.Kind
	ob      func() *obs.Observer // nil: no observer
	inj     *fault.Injector
	rcfg    ras.Config
	inert   bool // armed Metrics must equal the plain run's
	digests bool // with inert: plain Metrics must match oneCoreDigests
	verify  bool // the observer's conservation audits must hold
}

// checkHookBundle runs b for each of its kinds, one subtest per kind.
func checkHookBundle(t *testing.T, b hookBundle) {
	t.Helper()
	for _, kind := range b.kinds {
		t.Run(kind.String(), func(t *testing.T) {
			opt := b.opt
			opt.Kind = kind
			var ob *obs.Observer
			if b.ob != nil {
				ob = b.ob()
			}
			armed, err := NewRunnerFull(opt, ob, b.inj, b.rcfg)
			if err != nil {
				t.Fatalf("NewRunnerFull: %v", err)
			}
			got := mustRun(t, armed)
			if b.inert {
				plain := mustRunOpt(t, opt)
				if plain != got {
					t.Errorf("armed hooks changed the results:\nplain: %+v\narmed: %+v", plain, got)
				}
				if d := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", plain)))); b.digests && d != oneCoreDigests[kind] {
					t.Errorf("1-core Metrics digest %s, want %s", d, oneCoreDigests[kind])
				}
			}
			if b.verify {
				verifyObserver(t, ob)
			}
		})
	}
}

// verifyObserver runs the observer's conservation audits (Verify).
func verifyObserver(t *testing.T, ob *obs.Observer) {
	t.Helper()
	if err := ob.Verify(); err != nil {
		t.Error(err)
	}
}

// TestRunViewConservesWhenRunnerKeepsGoing: Run, then Steps, then Run
// again must keep every audit exact under the armed, timeline-only and
// heatmap-only observers, because each Close folds everything the run
// view has not folded yet.
func TestRunViewConservesWhenRunnerKeepsGoing(t *testing.T) {
	for _, tc := range []struct {
		name string
		ob   func() *obs.Observer
	}{
		{"armed", armedObserver},
		{"timeline", func() *obs.Observer { return timelineObserver(config.Microsecond) }},
		{"heatmap", func() *obs.Observer {
			return &obs.Observer{Reg: obs.NewRegistry(), At: attr.NewRecorder(), Heat: heatmap.NewRecorder(0, 0)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := quickOpts()
			opt.Kind = mc.TMCC
			ob := tc.ob()
			r, err := NewRunnerFull(opt, ob, nil, ras.Config{})
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, r)
			r.Steps(5000)
			mustRun(t, r)
			verifyObserver(t, ob)
		})
	}
}

// quickOpts is canneal at 20000/20000 accesses, seed 7, kind unset.
func quickOpts() Options {
	return Options{Benchmark: "canneal", WarmupAccesses: 20000, MeasureAccesses: 20000, Seed: 7}
}

// TestObservationDoesNotPerturbResults is the layer's core guarantee: a
// run observed with a live registry and tracer returns Metrics identical
// to an unobserved run of the same Options, for every design.
func TestObservationDoesNotPerturbResults(t *testing.T) {
	checkHookBundle(t, hookBundle{opt: quickOpts(), ob: obs.New, inert: true,
		kinds: []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC}})
}

// TestHookBundlesLeaveMetricsIdentical covers the hook spine on one core:
// with every observation sink armed the Metrics equal the plain run's and
// match oneCoreDigests, and the observer's audits (attr conservation,
// VerifyTimeline, VerifyHeatmap) hold with and without RAS armed. The
// RAS-armed bundle changes results by design and asserts only the audits.
func TestHookBundlesLeaveMetricsIdentical(t *testing.T) {
	oneCore := quickOpts()
	oneCore.Sys = config.Default()
	oneCore.Sys.CPU.Cores = 1
	kinds := []mc.Kind{mc.TMCC, mc.OSInspired}
	t.Run("1core", func(t *testing.T) {
		checkHookBundle(t, hookBundle{opt: oneCore, kinds: kinds, ob: armedObserver,
			inert: true, digests: true, verify: true})
	})
	t.Run("1core-ras", func(t *testing.T) {
		checkHookBundle(t, hookBundle{opt: oneCore, kinds: kinds, ob: armedObserver,
			rcfg: ras.Default(), verify: true})
	})
}

// mcStatsPaths names the mc.<kind>.* counter each mc.Stats field is
// sampled into.
var mcStatsPaths = map[string]string{
	"Reads":              "reads",
	"Writes":             "writes",
	"CTEHits":            "ctecache.hit",
	"CTEMisses":          "ctecache.miss",
	"CTEFetchesDRAM":     "cte.fetchDRAM",
	"ParallelOK":         "spec.verifyOK",
	"ParallelWrong":      "spec.verifyFail",
	"SerialNoEmbed":      "spec.serialNoEmbed",
	"ML2Reads":           "ml2.reads",
	"ML2ToML1":           "ml2.toML1",
	"ML1ToML2":           "ml1.toML2",
	"IncompressSkips":    "ml2.incompressSkips",
	"CTEMissWalkRelated": "cte.missWalkRelated",
	"CTEVictimHits":      "cte.victimHit",
}

// faultCounterPaths names the fault.* counter each fault.Counters field
// is sampled into.
var faultCounterPaths = map[string]string{
	"CTECorrupt":  "fault.cte.corrupt",
	"CTEStale":    "fault.cte.stale",
	"Payload":     "fault.payload.flips",
	"Quarantines": "fault.payload.quarantines",
	"Spikes":      "fault.dram.spikes",
	"Busy":        "fault.dram.busy",
	"Retries":     "fault.dram.retries",
	"Timeouts":    "fault.dram.timeouts",
}

// checkFieldCounters requires every uint64 field of the struct values
// (all of one type) to have a path in paths, and the registry counter at
// prefix+path to equal the field summed over vals exactly.
func checkFieldCounters(t *testing.T, snap obs.Snapshot, prefix string, paths map[string]string, vals ...any) {
	t.Helper()
	typ := reflect.TypeOf(vals[0])
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		path, ok := paths[f.Name]
		if !ok {
			t.Errorf("%v.%s has no registry path", typ, f.Name)
			continue
		}
		var want uint64
		for _, v := range vals {
			want += reflect.ValueOf(v).Field(i).Uint()
		}
		s, ok := snap.Get(prefix + path)
		if !ok || s.Kind != "counter" {
			t.Errorf("%s (%v.%s) is not a registered counter", prefix+path, typ, f.Name)
			continue
		}
		if uint64(s.Value) != want {
			t.Errorf("%s = %d, want exactly %v.%s = %d", prefix+path, s.Value, typ, f.Name, want)
		}
	}
}

// TestObsCountersConsistentWithMetrics pins the acceptance bar: after an
// observed tight-budget TMCC run, every mc.Stats field has its
// mc.tmcc.* counter, and each counter equals the field's lifetime value
// exactly — the Stats the warmup left (placement included), which the run
// view folds in before the reset, plus the measured window's. The warmup
// runs by hand through Steps, so the test can read those Stats; Run then
// measures with no warmup of its own. CTE cache traffic, speculation and
// ML2 demand reads must all have happened.
func TestObsCountersConsistentWithMetrics(t *testing.T) {
	opt := tightOpts(t)
	opt.VictimShadow = true
	warmup := opt.WarmupAccesses
	opt.WarmupAccesses = 0
	ob := obs.New()
	r, err := NewRunnerFull(opt, ob, nil, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.Steps(warmup)
	warm := r.mcc.StatsSnapshot()
	m := mustRun(t, r)
	if m.MC.ML2Reads == 0 {
		t.Fatal("tight budget produced no ML2 demand reads; the fixture lost its bite")
	}
	snap := ob.Reg.Snapshot()
	checkFieldCounters(t, snap, "mc.tmcc.", mcStatsPaths, warm, m.MC)
	for _, path := range []string{"ctecache.hit", "ctecache.miss", "ml2.reads", "ml1.toML2", "cte.victimHit"} {
		if counterByPath(snap, "mc.tmcc."+path) == 0 {
			t.Errorf("mc.tmcc.%s is zero after a tight-budget TMCC run", path)
		}
	}
	if m.MC.ParallelOK+m.MC.ParallelWrong == 0 {
		t.Error("no speculative verifications recorded")
	}

	checkExactSimCounters(t, snap, m)

	// A virtualized run's 2D walks count every host and guest PTB
	// reference in sim.walk.refs too.
	virt := quickOpts()
	virt.Kind, virt.Virtualized = mc.TMCC, true
	virt.WarmupAccesses, virt.MeasureAccesses = 5000, 5000
	vob := obs.New()
	vr, err := NewRunnerFull(virt, vob, nil, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vm := mustRun(t, vr)
	if vm.WalkRefs == 0 {
		t.Fatal("virtualized run made no walk references; the fixture lost its bite")
	}
	checkExactSimCounters(t, vob.Reg.Snapshot(), vm)

	// The trace must cover the span taxonomy: phases, walks, CTE fetches,
	// ML2 decompresses, and migrations.
	cats := map[string]int{}
	for _, sp := range ob.Tr.Spans() {
		cats[sp.Cat]++
	}
	for _, want := range []string{obs.CatPhase, obs.CatWalk, obs.CatCTEFetch, obs.CatML2, obs.CatMigration} {
		if cats[want] == 0 {
			t.Errorf("no %q spans in the trace (got %v)", want, cats)
		}
	}
	if len(cats) < 4 {
		t.Errorf("trace has %d span categories, want >= 4: %v", len(cats), cats)
	}
}

// TestFaultCountersRegistered: after an observed chaos run every
// fault.Counters field has its fault.* counter, equal to the injector's
// tally exactly. The controller's own mc.<kind>.fault.dramBusy counts
// operations whose first probe found the channel busy, so it is at most
// the injector's count of busy draws, retries included.
func TestFaultCountersRegistered(t *testing.T) {
	opt := quickOpts()
	opt.Kind = mc.TMCC
	inj := fault.NewInjector(chaosPlan(), fault.RunSalt("sim-obs", "tmcc"))
	ob := obs.New()
	r, err := NewRunnerFull(opt, ob, inj, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, r)
	c := inj.Counters()
	if c.Busy == 0 || c.Retries == 0 {
		t.Fatalf("chaos plan drew no channel-busy faults (%v); the fixture lost its bite", c)
	}
	snap := ob.Reg.Snapshot()
	checkFieldCounters(t, snap, "", faultCounterPaths, c)
	if busy := uint64(counterByPath(snap, "mc.tmcc.fault.dramBusy")); busy == 0 || busy > c.Busy {
		t.Errorf("mc.tmcc.fault.dramBusy = %d, want in [1, %d]", busy, c.Busy)
	}
}

// TestML1GaugesReadEndOfRun: mc.<kind>.ml1.pages and ml1.freeChunks read
// ML1's occupancy when the run closes, on every design. The flat designs
// place every page in ML1, so their page counts are above 0.
func TestML1GaugesReadEndOfRun(t *testing.T) {
	for _, kind := range []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC} {
		opt := quickOpts()
		opt.Kind = kind
		ob := obs.New()
		r, err := NewRunnerFull(opt, ob, nil, ras.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, r)
		snap := ob.Reg.Snapshot()
		p := "mc." + kind.String() + "."
		pages, _ := snap.Get(p + "ml1.pages")
		free, _ := snap.Get(p + "ml1.freeChunks")
		if pages.Value != int64(r.mcc.ML1Pages()) || free.Value != int64(r.mcc.FreeML1Chunks()) {
			t.Errorf("%s: ml1.pages %d, ml1.freeChunks %d; the controller holds %d pages and %d free chunks",
				kind, pages.Value, free.Value, r.mcc.ML1Pages(), r.mcc.FreeML1Chunks())
		}
		if (kind == mc.Uncompressed || kind == mc.Compresso) && pages.Value <= 0 {
			t.Errorf("%sml1.pages = %d after a %s run, want > 0", p, pages.Value, kind)
		}
	}
}

// checkExactSimCounters: recording-gated sim counters advance by exactly
// the Metrics deltas on a fresh registry (one run, one runner).
func checkExactSimCounters(t *testing.T, snap obs.Snapshot, m Metrics) {
	t.Helper()
	for _, c := range []struct {
		path string
		want uint64
	}{
		{"sim.tlb.miss", m.TLBMisses},
		{"sim.walk.count", m.Walks},
		{"sim.walk.refs", m.WalkRefs},
		{"sim.l3.miss", m.LLCMisses},
		{"sim.l3.writeback", m.Writebacks},
	} {
		if s, _ := snap.Get(c.path); uint64(s.Value) != c.want {
			t.Errorf("%s = %d, want exactly %d", c.path, s.Value, c.want)
		}
	}
	if s, ok := snap.Get("sim.l3.missLatencyNS"); !ok || s.Count != m.LLCMisses {
		t.Errorf("sim.l3.missLatencyNS count = %d, want %d", s.Count, m.LLCMisses)
	}
}

// TestDerivedMetricsZeroDenominators pins the division guards in the
// derived-metric methods: a zero-valued Metrics (and any run that measured
// nothing) must report clean zeros, never NaN or Inf.
func TestDerivedMetricsZeroDenominators(t *testing.T) {
	var z Metrics
	if got := z.IPC(); got != 0 {
		t.Errorf("zero Metrics IPC = %v, want 0", got)
	}
	if got := z.StoresPerCycle(); got != 0 {
		t.Errorf("zero Metrics StoresPerCycle = %v, want 0", got)
	}
	if got := z.AvgL3MissLatencyNS(); got != 0 {
		t.Errorf("zero Metrics AvgL3MissLatencyNS = %v, want 0", got)
	}

	// Partial zeros: numerator set, denominator zero.
	p := Metrics{Instructions: 10, Stores: 5, L3MissLatencySum: 1000}
	if got := p.IPC(); got != 0 {
		t.Errorf("Cycles=0 IPC = %v, want 0", got)
	}
	if got := p.StoresPerCycle(); got != 0 {
		t.Errorf("Cycles=0 StoresPerCycle = %v, want 0", got)
	}
	if got := p.AvgL3MissLatencyNS(); got != 0 {
		t.Errorf("LLCMisses=0 AvgL3MissLatencyNS = %v, want 0", got)
	}
}

// TestZeroMeasureWindowRunIsFinite runs warmup only (MeasureAccesses=0):
// every derived metric must stay finite and the raw aggregates zero.
func TestZeroMeasureWindowRunIsFinite(t *testing.T) {
	r, err := NewRunner(Options{
		Benchmark:      "canneal",
		Kind:           mc.TMCC,
		WarmupAccesses: 5000,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := mustRun(t, r)
	if m.Cycles != 0 || m.Instructions != 0 || m.LLCMisses != 0 {
		t.Fatalf("empty measure window recorded work: %+v", m)
	}
	for name, v := range map[string]float64{
		"IPC":                m.IPC(),
		"StoresPerCycle":     m.StoresPerCycle(),
		"AvgL3MissLatencyNS": m.AvgL3MissLatencyNS(),
	} {
		if v != 0 {
			t.Errorf("%s = %v on an empty measure window, want 0", name, v)
		}
	}
}

// TestCountsSurviveFailedRun: a run that stops on ErrCapacityExhausted
// still folds its counts into the shared registry, among them the
// exhaustion itself and the migrations placement made, which the end of
// warmup zeroes in mc.Stats.
func TestCountsSurviveFailedRun(t *testing.T) {
	ob := obs.New()
	opt := Options{Benchmark: "canneal", Kind: mc.TMCC, WarmupAccesses: 30000, MeasureAccesses: 30000, Seed: 42}
	r, err := NewRunnerFull(opt, ob, nil, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the controller the way TestCapacityErrorStopsWithinOneBatch
	// does: keep placing never-seen pages until the pressure ladder gives
	// up. Its emergency force-migrations count as ML1 -> ML2 evictions.
	osPages := r.spec.FootprintPages * 4
	for ppn := uint64(0); r.mcc.Err() == nil; ppn++ {
		if ppn >= osPages {
			t.Fatal("could not exhaust capacity within the OS pool")
		}
		r.mcc.Place(ppn, false)
	}
	placed := r.mcc.StatsSnapshot().ML1ToML2
	if placed == 0 {
		t.Fatal("exhausting placement evicted nothing; the fixture lost its bite")
	}
	if _, err := r.Run(); !errors.Is(err, mc.ErrCapacityExhausted) {
		t.Fatalf("Run = %v, want ErrCapacityExhausted", err)
	}
	snap := ob.Reg.Snapshot()
	if got := counterByPath(snap, "mc.tmcc.pressure.exhausted"); got == 0 {
		t.Error("mc.tmcc.pressure.exhausted did not reach the shared registry")
	}
	if got := uint64(counterByPath(snap, "mc.tmcc.ml1.toML2")); got < placed {
		t.Errorf("mc.tmcc.ml1.toML2 = %d, below the %d evictions placement made", got, placed)
	}
}
