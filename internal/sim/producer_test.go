package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/mc"
)

// refill is the inline generation step the producer goroutine replaced,
// kept verbatim as the reference except that it fills the batch c.batch
// points at (batches are no longer embedded in the core) and a batch has no
// fill count (every fill is a full one). Each record then takes the TLB and
// L1 steps the timing loop used to run itself (frontInline).
func (r *Runner) refill(c *core) {
	b := c.batch
	for i := 0; i < batchSize; i++ {
		a := c.trace.Next()
		b.vaddr[i] = a.VAddr
		b.ppn[i] = r.translateInline(a.VAddr >> 12)
		b.gap[i] = int32(a.Gap)
		b.write[i] = a.Write
		b.dep[i] = a.Dep
		b.tlbMiss[i], b.l1Hit[i] = frontInline(c, a.VAddr, b.ppn[i], a.Write)
	}
	b.pos = 0
}

// frontInline is what step and memAccess did to a core's TLB and L1 before
// the producer took them over: step probed the TLB and filled it after the
// walk a miss took; an unmapped record went no further; a demand L1 hit
// dirtied the line on a write, and a demand L1 miss (fillL1, after the
// L2, L3 or MC served it) filled the block, dirty for a write.
func frontInline(c *core, vaddr, ppn uint64, write bool) (tlbMiss, l1Hit bool) {
	vpn := vaddr >> 12
	if !c.tlb.Lookup(vpn) {
		tlbMiss = true
		c.tlb.Insert(vpn)
	}
	if ppn == unmappedPPN {
		return tlbMiss, false
	}
	block := ppn*config.BlocksPage + uint64(int(vaddr>>6)&63)
	if s := c.l1.Lookup(block); s >= 0 {
		if write {
			c.l1.OrFlagsAt(s, cache.FlagDirty)
		}
		return tlbMiss, true
	}
	var f uint8
	if write {
		f = cache.FlagDirty
	}
	c.l1.Insert(block, f)
	return tlbMiss, false
}

// translateInline is the Runner method refill used before translation
// moved to the package-level helper the producer shares.
func (r *Runner) translateInline(vpn uint64) uint64 {
	idx := vpn - r.vlo
	if idx >= uint64(len(r.vpnToPPN)) || r.vpnToPPN[idx] == noPPN {
		return unmappedPPN
	}
	return uint64(r.vpnToPPN[idx])
}

// preloadInline makes r consume inline-generated records with no producer
// goroutine: every batch the run can need (records >= the accesses it will
// make, so no core can run dry) is generated up front by refill and queued
// on the core's full channel, and used batches go to a free channel nobody
// drains.
func preloadInline(r *Runner, records int) {
	batches := records/batchSize + 2
	p := &producer{
		full: make([]chan *accessBatch, len(r.cores)),
		free: make(chan *accessBatch, len(r.cores)*batches),
	}
	for i, c := range r.cores {
		p.full[i] = make(chan *accessBatch, batches)
		for j := 0; j < batches; j++ {
			c.batch = new(accessBatch)
			r.refill(c)
			p.full[i] <- c.batch
		}
		c.batch = &accessBatch{pos: batchSize}
	}
	r.feed = &feed{p}
}

// producerCases are the systems the producer is checked on, covering every
// front-end path: TMCC native on two benchmarks with different footprints
// and access mixes; TMCC under virtualization, whose vpnToPPN is the
// composed guest/host table; TMCC on huge pages, which embeds nothing; and
// Compresso, whose MC is flat.
var producerCases = []Options{
	{Benchmark: "canneal", Kind: mc.TMCC},
	{Benchmark: "shortestPath", Kind: mc.TMCC},
	{Benchmark: "canneal", Kind: mc.TMCC, Virtualized: true},
	{Benchmark: "canneal", Kind: mc.TMCC, HugePages: true},
	{Benchmark: "canneal", Kind: mc.Compresso},
}

// caseName names a case by its benchmark and how it differs from native
// TMCC.
func caseName(opt Options) string {
	name := opt.Benchmark
	if opt.Kind != mc.TMCC {
		name += "-" + opt.Kind.String()
	}
	if opt.Virtualized {
		name += "-virt"
	}
	if opt.HugePages {
		name += "-huge"
	}
	return name
}

// TestProducerMatchesInlineGeneration pins the pipeline's determinism:
// each core consumes exactly the record stream the inline refill
// generated, and a run fed by the producer ends in the same Metrics, MC
// statistics and DRAM statistics as one fed by the inline reference, for
// Run and for Steps in chunks straddling the batch size, at one and two
// procs.
func TestProducerMatchesInlineGeneration(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, base := range producerCases {
				opt := base
				opt.WarmupAccesses, opt.MeasureAccesses, opt.Seed = 4000, 8000, 42
				t.Run(caseName(opt)+"/stream", func(t *testing.T) { checkStream(t, opt) })
				for _, chunk := range []int{0, 1, 63, 64, 65, 4097} {
					name := "run"
					if chunk > 0 {
						name = fmt.Sprintf("steps%d", chunk)
					}
					t.Run(caseName(opt)+"/"+name, func(t *testing.T) { checkRunMatches(t, opt, chunk) })
				}
			}
		})
	}
}

// checkStream takes batches from every core in a seeded irregular order
// and compares each with the reference's next inline batch for that core.
func checkStream(t *testing.T, opt Options) {
	r, ref := newPair(t, opt)
	r.startProducer()
	for _, c := range ref.cores {
		c.batch = new(accessBatch)
	}
	order := rand.New(rand.NewSource(1))
	taken := make([]int, len(r.cores))
	for n := 0; n < 400; n++ {
		id := order.Intn(len(r.cores))
		got := *r.nextBatch(r.cores[id])
		ref.refill(ref.cores[id])
		want := *ref.cores[id].batch
		got.core, want.core = 0, 0
		if got != want {
			for i := range got.vaddr {
				if g, w := got.record(i), want.record(i); g != w {
					t.Fatalf("core %d record %d: (vaddr ppn gap write dep tlbMiss l1Hit) = %s, inline reference %s",
						id, taken[id]*batchSize+i, g, w)
				}
			}
			t.Fatalf("core %d batch %d differs from the inline reference outside its records", id, taken[id])
		}
		taken[id]++
	}
}

// record prints every field of b's record i, in declaration order.
func (b *accessBatch) record(i int) string {
	return fmt.Sprint(b.vaddr[i], b.ppn[i], b.gap[i], b.write[i], b.dep[i], b.tlbMiss[i], b.l1Hit[i])
}

// checkRunMatches runs a producer-fed runner and an inline-fed reference
// through Run and then, for chunk > 0, 8194 more accesses in Steps of
// chunk, and requires every reported statistic to match.
func checkRunMatches(t *testing.T, opt Options, chunk int) {
	const steps = 2 * 4097
	r, ref := newPair(t, opt)
	preloadInline(ref, opt.WarmupAccesses+opt.MeasureAccesses+steps)
	got, want := mustRun(t, r), mustRun(t, ref)
	if chunk > 0 {
		for done := 0; done < steps; done += chunk {
			n := min(chunk, steps-done)
			r.Steps(n)
			ref.Steps(n)
		}
		got, want = r.m, ref.m
	}
	if got != want {
		t.Errorf("Metrics differ from the inline reference:\n got %+v\nwant %+v", got, want)
	}
	if g, w := r.mcc.StatsSnapshot(), ref.mcc.StatsSnapshot(); g != w {
		t.Errorf("MC stats differ from the inline reference:\n got %+v\nwant %+v", g, w)
	}
	if g, w := r.mcc.DRAM().Stats, ref.mcc.DRAM().Stats; g != w {
		t.Errorf("DRAM stats differ from the inline reference:\n got %+v\nwant %+v", g, w)
	}
}

// newPair builds two identical runners: one to run with its producer, one
// to serve as the inline reference.
func newPair(t *testing.T, opt Options) (r, ref *Runner) {
	t.Helper()
	var err error
	if r, err = NewRunner(opt); err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if ref, err = NewRunner(opt); err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r, ref
}

// producerGoroutines counts the goroutines running a producer loop.
func producerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "sim.(*producer).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleGoroutines collects garbage until cond holds, failing after a few
// seconds. Finalizers and producer exits run asynchronously after a GC.
func settleGoroutines(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still %d goroutines (%d producers) after 10s", what, runtime.NumGoroutine(), producerGoroutines())
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProducerLifecycle pins the producer's lifetime and what it owns: a
// runner starts one producer on its first Steps, which takes every core's
// trace, TLB and L1, and reuses it on every later call, and a dropped
// runner's producer, front ends and all, exits once the runner is
// collected, which proves the producer pins no Runner.
func TestProducerLifecycle(t *testing.T) {
	settleGoroutines(t, "earlier tests' producers", func() bool { return producerGoroutines() == 0 })
	base := runtime.NumGoroutine()

	opt := Options{Benchmark: "canneal", Kind: mc.TMCC, WarmupAccesses: 1000, MeasureAccesses: 1000, Seed: 42}
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if n := producerGoroutines(); n != 0 {
		t.Fatalf("NewRunner started %d producers, want 0 before the first run", n)
	}
	for i := 0; i < 5; i++ {
		r.Steps(1000)
		if n := producerGoroutines(); n != 1 {
			t.Fatalf("after Steps call %d: %d producers, want 1", i+1, n)
		}
	}
	for _, c := range r.cores {
		if c.trace != nil || c.tlb != nil || c.l1 != nil {
			t.Fatalf("core %d still holds (trace, tlb, l1) = (%p, %p, %p) after the producer started; want all nil",
				c.id, c.trace, c.tlb, c.l1)
		}
	}
	for i, fe := range r.feed.fronts {
		if fe.trace == nil || fe.tlb == nil || fe.l1 == nil {
			t.Fatalf("producer front end %d lacks its trace, TLB or L1: %+v", i, fe)
		}
	}
	mustRun(t, r)
	if n := producerGoroutines(); n != 1 {
		t.Fatalf("after Run: %d producers, want 1", n)
	}
	runtime.KeepAlive(r)

	for i := 0; i < 10; i++ {
		d, err := NewRunner(opt)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		d.Steps(100)
	}
	settleGoroutines(t, "dropped runners", func() bool { return runtime.NumGoroutine() <= base })
}

// TestProducerPanicReraised pins the panic path: a panic in trace
// generation on the producer goroutine is re-raised on the goroutine that
// called Steps, where it can be recovered, and the producer exits.
func TestProducerPanicReraised(t *testing.T) {
	r, err := NewRunner(Options{Benchmark: "canneal", Kind: mc.TMCC, WarmupAccesses: 1000, MeasureAccesses: 1000, Seed: 42})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	base := runtime.NumGoroutine()
	r.cores[1].trace = nil

	steps := func() (v any) {
		defer func() { v = recover() }()
		r.Steps(1000)
		return nil
	}
	v := steps()
	var re runtime.Error
	if err, ok := v.(error); !ok || !errors.As(err, &re) || !strings.Contains(re.Error(), "nil pointer") {
		t.Fatalf("Steps recovered %v, want the producer's nil-pointer runtime error", v)
	}
	if again := steps(); again != v {
		t.Errorf("second Steps recovered %v, want the same value %v", again, v)
	}
	settleGoroutines(t, "after the producer panicked", func() bool { return runtime.NumGoroutine() <= base })
	runtime.KeepAlive(r)
}
