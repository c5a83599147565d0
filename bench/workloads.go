package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"time"

	"tmcc/internal/config"
	"tmcc/internal/dram"
	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/fault"
	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
	"tmcc/internal/ras"
	"tmcc/internal/sim"
)

// workload is one set of inputs the benchmark runs. Why is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	Name string
	Why  string
	run  func(p *pass)
}

var workloads = []workload{
	{"paper-quick", "all 25 paper experiments at Quick size on the shared engine; system build and codec work dominate", runPaperQuick},
	{"tmcc-steady", "4 translation-hostile benchmarks on TMCC in timed access chunks; the CTE/PTB translation path dominates", func(p *pass) { runSteady(p, mc.TMCC) }},
	{"uncompressed-steady", "the same traces on Uncompressed: trace, cache and TLB work only; control for TMCC-only changes", func(p *pass) { runSteady(p, mc.Uncompressed) }},
	{"armed-steady", "TMCC and OS-inspired with observer, fault plan and RAS armed; every hook on the access path fires", runArmed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size scales a pass. fullSize is what the benchmark measures; checkSize
// keeps every code path of a workload at a few seconds of work, for the
// check pass every run makes and for the tests. The golden digests pin
// both.
type size struct {
	Quick        []string // paper-quick experiments; nil means every exp.IDs()
	Warm         int      // steady: Run warmup accesses per system
	Measure      int      // steady: Run measured accesses per system
	Chunks       int      // steady: timed Steps chunks per system
	ChunkLen     int      // steady: accesses per chunk
	ArmedWarm    int      // armed: warmup accesses per job
	ArmedMeasure int      // armed: measured accesses per job
	Builds       int      // builds per setup system
}

var (
	fullSize = size{
		Warm: 120000, Measure: 80000, Chunks: 48, ChunkLen: 32768,
		ArmedWarm: 50000, ArmedMeasure: 150000, Builds: 3,
	}
	checkSize = size{
		Quick: []string{"ablation-recency", "fig6"},
		Warm:  3000, Measure: 2000, Chunks: 4, ChunkLen: 1024,
		ArmedWarm: 3000, ArmedMeasure: 2000, Builds: 1,
	}
)

// checkSeed is the seed of the check pass.
const checkSeed = 42

// goldenKey names a workload's digests at size sz in the golden files; ""
// when that size has none.
func goldenKey(workload string, sz size) string {
	switch {
	case reflect.DeepEqual(sz, fullSize):
		return workload
	case reflect.DeepEqual(sz, checkSize):
		return workload + "@check"
	}
	return ""
}

// steadyBenchmarks are the translation-hostile benchmarks: footprints of
// 288 MB to 1 GB simulated against an 8 MB LLC and 8 MB of TLB reach, the
// ones Figure 2 shows missing the CTE cache most (shortestPath, canneal)
// plus the pointer-chasing mcf and the largest graph kernel.
var steadyBenchmarks = []string{"shortestPath", "canneal", "mcf", "pageRank"}

// pass is one workload execution in one process. The workload times its
// calls into the simulator from outside and fills the fields below.
type pass struct {
	ctx   context.Context
	seed  int64
	size  size
	spans *spanLog
	root  int // the workload span

	ops      []string          // op names, in order
	digests  map[string]string // op -> SHA-256 of its output
	failures map[string]string // failed op -> reason
	metrics  map[string]float64
	// access holds host ns per simulated access by group: the chunks of a
	// steady system, the Run calls of an armed (benchmark, design), or the
	// executions of one paper-quick engine job. Groups are the same work in
	// every pass of a seed, so a run pools them across its passes.
	access map[string][]float64
	// builds holds build times in seconds by setup system, pooled the same
	// way.
	builds map[string][]float64
	// clock holds the reference-clock samples taken between the workload's
	// own (see tick).
	clock []float64
	// simAccesses counts the accesses simulated inside Runner.Run and
	// Runner.Steps: the denominator of every sim_ns_per_access.
	simAccesses uint64
}

func (p *pass) op(name string, digest string) {
	p.ops = append(p.ops, name)
	p.digests[name] = digest
}

func (p *pass) fail(op string, err error) {
	if _, ok := p.failures[op]; !ok {
		p.failures[op] = err.Error()
	}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// build times one system build under its span and labels and records it
// as a setup sample of label.
func (p *pass) build(parent int, label string, f func() (*sim.Runner, error)) (*sim.Runner, error) {
	var r *sim.Runner
	var err error
	d := p.spans.do(p.ctx, parent, "build "+label, []string{"phase", "build", "system", label}, func(context.Context, int) {
		r, err = f()
	})
	if err == nil {
		p.builds[label] = append(p.builds[label], d.Seconds())
	}
	return r, err
}

// buildRepeated builds a system p.size.Builds times and keeps the last.
// The first build of a benchmark also fills the process-wide size-model
// memo, so the median build is what each later job pays.
func (p *pass) buildRepeated(parent int, label string, f func() (*sim.Runner, error)) (r *sim.Runner, err error) {
	for i := 0; i < p.size.Builds && err == nil; i++ {
		r, err = p.build(parent, label, f)
	}
	return r, err
}

// runPaperQuick regenerates every paper table at Quick size, as
// `tmccsim -all -quick -format csv` does: one engine with nproc workers,
// its memo table and the size models starting cold. An op is one table;
// its digest is the CSV tmccsim prints for it.
func runPaperQuick(p *pass) {
	eng := exp.Engine()
	eng.SetWorkers(runtime.NumCPU())
	eng.SetClock(func() int64 { return time.Now().UnixNano() })
	var (
		mu     sync.Mutex
		curExp int
		jobMS  []float64
	)
	eng.SetProgress(func(r engine.Run) {
		end := time.Now()
		acc := uint64(r.Opt.WarmupAccesses + r.Opt.MeasureAccesses)
		// Executed jobs have distinct options, and the same options in
		// every pass of a seed.
		job := fmt.Sprintf("job %s/%s %.8s", r.Opt.Benchmark, r.Opt.Kind, digest(fmt.Sprintf("%+v", engine.KeyOf(r.Opt))))
		mu.Lock()
		defer mu.Unlock()
		p.spans.add(curExp, job, end.Add(-time.Duration(r.Nanos)), end)
		jobMS = append(jobMS, float64(r.Nanos)/1e6)
		p.access[job] = append(p.access[job], float64(r.Nanos)/float64(acc))
		p.simAccesses += acc
	})
	defer eng.SetProgress(nil)

	ids := p.size.Quick
	if ids == nil {
		ids = exp.IDs()
	}
	start := time.Now()
	for _, id := range ids {
		// Between tables the engine's workers are idle, so the clock
		// sample runs alone.
		p.tick()
		run, ok := exp.Get(id)
		if !ok {
			p.ops = append(p.ops, id)
			p.fail(id, errors.New("unknown experiment"))
			continue
		}
		var t *exp.Table
		var err error
		p.spans.do(p.ctx, p.root, "exp "+id, []string{"exp", id}, func(_ context.Context, span int) {
			mu.Lock()
			curExp = span
			mu.Unlock()
			t, err = run(exp.Config{Seed: p.seed, Quick: true})
		})
		if err != nil {
			p.ops = append(p.ops, id)
			p.fail(id, err)
			continue
		}
		p.op(id, digest(t.CSV()+"\n"))
		if err := checkTable(t); err != nil {
			p.fail(id, err)
		}
	}
	wall := time.Since(start)

	st := eng.Stats()
	m := p.metrics
	m["engine.jobs"] = float64(st.Runs)
	m["engine.memo_hits"] = float64(st.Hits + st.Coalesced)
	m["engine.failed_jobs"] = float64(st.Failed)
	m["engine.busy_frac"] = float64(st.RunNanos) / (float64(wall.Nanoseconds()) * float64(eng.Workers()))
	m["engine.job_ms_p50"] = median(jobMS)
	m["engine.job_ms_p90"] = nearestRank(jobMS, 0.9)

	// Set-up runs after the suite, with the size models warm, so the median
	// build is what each engine job pays; fig17's pair of designs on the
	// translation-hostile benchmarks stands in for the suite's systems.
	var held []*sim.Runner
	for _, b := range steadyBenchmarks {
		for _, k := range []mc.Kind{mc.Compresso, mc.TMCC} {
			opt := sim.Options{Benchmark: b, Kind: k, WarmupAccesses: 30000, MeasureAccesses: 20000, Seed: p.seed}
			label := b + "/" + k.String()
			r, err := p.buildRepeated(p.root, label, func() (*sim.Runner, error) { return sim.NewRunner(opt) })
			if err != nil {
				p.ops = append(p.ops, "setup "+label)
				p.fail("setup "+label, err)
				continue
			}
			held = append(held, r)
		}
	}
	m["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(held)
}

// checkTable rejects a table no reader could use: no rows, or a value that
// is not a finite number.
func checkTable(t *exp.Table) error {
	if len(t.Rows) == 0 {
		return errors.New("empty table")
	}
	for _, r := range t.Rows {
		for _, v := range r.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("row %s: non-finite value %v", r.Name, v)
			}
		}
	}
	return nil
}

// runSteady builds the four benchmarks' systems, runs each through its
// warmup and measured windows, then times p.size.Chunks Steps chunks per
// system, round-robin, on one goroutine. An op is one system; its digest
// covers the Run metrics and the controller and DRAM statistics after the
// last chunk.
func runSteady(p *pass, kind mc.Kind) {
	n := len(steadyBenchmarks)
	runners := make([]*sim.Runner, n)
	labels := make([]string, n)
	sys := make([]int, n)
	for i, b := range steadyBenchmarks {
		opt := sim.Options{Benchmark: b, Kind: kind, WarmupAccesses: p.size.Warm, MeasureAccesses: p.size.Measure, Seed: p.seed}
		labels[i] = b + "/" + kind.String()
		p.ops = append(p.ops, labels[i])
		sys[i] = p.spans.reserve(p.root, "system "+labels[i])
		r, err := p.buildRepeated(sys[i], labels[i], func() (*sim.Runner, error) { return sim.NewRunner(opt) })
		if err != nil {
			p.fail(labels[i], err)
			continue
		}
		runners[i] = r
	}
	p.metrics["live_heap_mb"] = liveHeapMB()

	var agg counts
	runs := make([]sim.Metrics, n)
	for i, r := range runners {
		if r == nil {
			continue
		}
		var err error
		p.spans.do(p.ctx, sys[i], "run "+labels[i], []string{"phase", "run", "system", labels[i]}, func(context.Context, int) {
			runs[i], err = r.Run()
		})
		p.simAccesses += uint64(p.size.Warm + p.size.Measure)
		if err == nil {
			err = checkRun(runs[i], p.size.Measure)
		}
		if err != nil {
			p.fail(labels[i], err)
			runners[i] = nil
			continue
		}
		agg.add(runs[i], r.MC().DRAM().Stats)
	}

	for c := 0; c < p.size.Chunks; c++ {
		for i, r := range runners {
			if r == nil {
				continue
			}
			name := fmt.Sprintf("chunk %s #%d", labels[i], c)
			d := p.spans.do(p.ctx, sys[i], name, []string{"phase", "chunk", "system", labels[i]}, func(context.Context, int) {
				r.Steps(p.size.ChunkLen)
			})
			p.access[labels[i]] = append(p.access[labels[i]], float64(d.Nanoseconds())/float64(p.size.ChunkLen))
			p.simAccesses += uint64(p.size.ChunkLen)
		}
		p.tick()
	}

	for i, r := range runners {
		p.spans.finish(sys[i])
		if r == nil {
			continue
		}
		if err := r.MC().Err(); err != nil {
			p.fail(labels[i], err)
		}
		p.digests[labels[i]] = digest(fmt.Sprintf("%+v\n%+v\n%+v\n", runs[i], r.MC().StatsSnapshot(), r.MC().DRAM().Stats))
	}
	agg.metrics(p.metrics)
}

// checkRun rejects a run whose metrics cannot be right whatever the seed:
// the measured window must hold exactly the requested accesses.
func checkRun(m sim.Metrics, measure int) error {
	if m.MemAccesses != uint64(measure) {
		return fmt.Errorf("measured %d accesses, want %d", m.MemAccesses, measure)
	}
	if m.Cycles == 0 || m.Instructions < m.MemAccesses {
		return fmt.Errorf("implausible run: %d cycles, %d instructions", m.Cycles, m.Instructions)
	}
	return nil
}

// Armed-steady configuration: every hook armed as the CLI arms it with
// -breakdown -timeline -heatmap -faults ... -chaos-seed 1 -ras.
const (
	armedPlan      = "cte=0.01,stale=0.01,payload=0.002,spike=0.002:250ns,busy=0.002:100ns:3"
	armedChaosSeed = 1
	armedSeeds     = 3
	armedTimeline  = 100 * config.Microsecond
)

var armedKinds = []mc.Kind{mc.TMCC, mc.OSInspired}

// runArmed runs the steady benchmarks on the two speculating designs over
// three seeds with the observer, a fault plan and the RAS layer armed. An
// op is one job; its digest covers the Run metrics and the faults it
// drew. The observer's conservation checks run at the end, and a violation
// fails every op.
func runArmed(p *pass) {
	plan, err := fault.ParsePlan(armedPlan)
	if err != nil {
		p.ops = append(p.ops, "plan")
		p.fail("plan", err)
		return
	}
	plan.Seed = armedChaosSeed
	ob := &obs.Observer{
		Reg:  obs.NewRegistry(),
		At:   attr.NewRecorder(),
		TL:   timeline.NewRecorder(armedTimeline),
		Heat: heatmap.NewRecorder(heatmap.DefaultRegionPages, 0),
	}
	var (
		agg    counts
		faults fault.Counters
		last   *sim.Runner
	)
	for s := int64(0); s < armedSeeds; s++ {
		for _, b := range steadyBenchmarks {
			for _, k := range armedKinds {
				opt := sim.Options{Benchmark: b, Kind: k, WarmupAccesses: p.size.ArmedWarm, MeasureAccesses: p.size.ArmedMeasure, Seed: p.seed + s}
				group := b + "/" + k.String()
				label := fmt.Sprintf("%s/s%d", group, opt.Seed)
				p.ops = append(p.ops, label)
				// The injector is seeded from the run's identity the way the
				// engine seeds it, so the faults match an engine run's.
				inj := fault.NewInjector(plan, fault.RunSalt(fmt.Sprintf("%+v", engine.KeyOf(opt))))
				job := p.spans.reserve(p.root, "job "+label)
				r, err := p.build(job, label, func() (*sim.Runner, error) { return sim.NewRunnerFull(opt, ob, inj, ras.Default()) })
				if err != nil {
					p.fail(label, err)
					p.spans.finish(job)
					continue
				}
				var m sim.Metrics
				d := p.spans.do(p.ctx, job, "run "+label, []string{"phase", "run", "system", group}, func(context.Context, int) {
					m, err = r.Run()
				})
				p.spans.finish(job)
				p.tick()
				p.simAccesses += uint64(opt.WarmupAccesses + opt.MeasureAccesses)
				if err == nil {
					err = checkRun(m, opt.MeasureAccesses)
				}
				if err != nil {
					p.fail(label, err)
					continue
				}
				p.access[group] = append(p.access[group], float64(d.Nanoseconds())/float64(opt.WarmupAccesses+opt.MeasureAccesses))
				agg.add(m, r.MC().DRAM().Stats)
				faults.Add(inj.Counters())
				p.digests[label] = digest(fmt.Sprintf("%+v\n%+v\n", m, inj.Counters()))
				last = r
			}
		}
	}
	p.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)

	reg, at := ob.Reg.Snapshot(), ob.At.Snapshot()
	if err := verifyObserver(ob, reg, at); err != nil {
		for _, op := range p.ops {
			p.fail(op, err)
		}
	}
	agg.metrics(p.metrics)
	p.metrics["fault.injected"] = float64(faults.Total())
	retired := 0.0
	for _, k := range armedKinds {
		if s, ok := reg.Get("mc." + k.String() + ".ras.retired"); ok {
			retired += float64(s.Value)
		}
	}
	p.metrics["ras.retired"] = retired
	records, _ := at.Totals()
	p.metrics["obs.attr_records"] = float64(records)
}

// verifyObserver runs the conservation checks the CLI runs before it
// exports any observer artifact.
func verifyObserver(ob *obs.Observer, reg obs.Snapshot, at attr.Snapshot) error {
	if err := at.Conserved(); err != nil {
		return fmt.Errorf("attr conservation: %w", err)
	}
	if err := obs.VerifyTimeline(ob.TL.Snapshot(), reg, at); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if err := obs.VerifyHeatmap(ob.Heat.Snapshot(), reg, at); err != nil {
		return fmt.Errorf("heatmap: %w", err)
	}
	return nil
}

// counts sums the exact simulated statistics of measured windows.
type counts struct {
	acc, instr, cycles                     uint64
	tlbMiss, walks, walkRefs, llcMiss, wb  uint64
	cteHits, cteMisses, cteFetch           uint64
	parOK, parWrong, serial                uint64
	ml2Reads, ml2ToML1, ml1ToML2           uint64
	dramReads, dramWrites, rowHits, rowMis uint64
	missLat                                config.Time
}

// add folds one measured window; d is the DRAM statistics right after Run,
// which cover the measured window only.
func (c *counts) add(m sim.Metrics, d dram.Stats) {
	c.acc += m.MemAccesses
	c.instr += m.Instructions
	c.cycles += m.Cycles
	c.tlbMiss += m.TLBMisses
	c.walks += m.Walks
	c.walkRefs += m.WalkRefs
	c.llcMiss += m.LLCMisses
	c.wb += m.Writebacks
	c.cteHits += m.MC.CTEHits
	c.cteMisses += m.MC.CTEMisses
	c.cteFetch += m.MC.CTEFetchesDRAM
	c.parOK += m.MC.ParallelOK
	c.parWrong += m.MC.ParallelWrong
	c.serial += m.MC.SerialNoEmbed
	c.ml2Reads += m.MC.ML2Reads
	c.ml2ToML1 += m.MC.ML2ToML1
	c.ml1ToML2 += m.MC.ML1ToML2
	c.dramReads += m.DRAMReads
	c.dramWrites += m.DRAMWrites
	c.rowHits += d.RowHits
	c.rowMis += d.RowMisses
	c.missLat += m.L3MissLatencySum
}

func (c *counts) metrics(out map[string]float64) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	pka := func(n uint64) float64 { return 1000 * ratio(n, c.acc) }
	cte := c.cteHits + c.cteMisses
	out["tlb.miss_pka"] = pka(c.tlbMiss)
	out["pagetable.walks_pka"] = pka(c.walks)
	out["pagetable.walk_refs_pka"] = pka(c.walkRefs)
	out["cache.llc_miss_pka"] = pka(c.llcMiss)
	out["cache.writeback_pka"] = pka(c.wb)
	out["ctecache.hit_rate"] = ratio(c.cteHits, cte)
	out["ctecache.dram_fetch_pka"] = pka(c.cteFetch)
	out["mc.parallel_ok_frac"] = ratio(c.parOK, cte)
	out["mc.parallel_wrong_frac"] = ratio(c.parWrong, cte)
	out["mc.serial_frac"] = ratio(c.serial, cte)
	out["mc.ml2_read_pka"] = pka(c.ml2Reads)
	out["mc.ml2_to_ml1_pka"] = pka(c.ml2ToML1)
	out["mc.ml1_to_ml2_pka"] = pka(c.ml1ToML2)
	out["dram.reads_pka"] = pka(c.dramReads)
	out["dram.writes_pka"] = pka(c.dramWrites)
	out["dram.row_hit_rate"] = ratio(c.rowHits, c.rowHits+c.rowMis)
	out["sim.ipc"] = ratio(c.instr, c.cycles)
	out["sim.l3_miss_lat_ns"] = ratio(uint64(c.missLat), c.llcMiss) / float64(config.Nanosecond)
}
