// Package workload generates the synthetic benchmark traces the simulator
// runs. The paper evaluates GraphBIG kernels on a Facebook-like social
// graph, SPEC CPU2017's mcf and omnetpp, and PARSEC's canneal (Section VI);
// we cannot ship those binaries or datasets, so each benchmark is an
// access-pattern generator over a virtual footprint with knobs (sequential
// run length, hot-set fraction, irregular-jump probability, write fraction,
// compute gap) set to reproduce the paper's measured memory behaviour:
// TLB and CTE miss rates relative to LLC misses (Figures 1/2/5) and memory
// intensiveness (Figure 16). Contents come from package content's
// calibrated per-benchmark mixes.
package workload

import (
	"tmcc/internal/config"
	"tmcc/internal/fastdiv"
)

// Access is one memory operation of the trace.
type Access struct {
	VAddr uint64
	Write bool
	// Gap is the number of non-memory instructions the core executes
	// before this access.
	Gap int
	// Dep marks a data-dependent access (the address came from a prior
	// load, as in graph traversal or pointer chasing): the core cannot
	// issue it until the previous dependent access completed.
	Dep bool
}

// Spec parameterizes one benchmark's access pattern.
type Spec struct {
	Name string
	// FootprintPages is the virtual data footprint in 4KB pages.
	FootprintPages uint64
	// SeqRun is the mean number of consecutive 64B blocks touched before
	// the stream jumps (spatial locality).
	SeqRun int
	// HotFrac is the fraction of jumps that land in the hot subset of
	// pages; HotPages is that subset's size.
	HotFrac  float64
	HotPages uint64
	// PointerChase makes jump targets depend on a per-benchmark hash chain
	// (serial dependence), as in mcf; it mainly documents intent — the
	// timing model treats all loads uniformly inside the window.
	PointerChase bool
	// WarmPages is the size of the warm zone: pages outside the hot set
	// that non-cold jumps land in. The warm zone drives TLB/CTE misses
	// (it exceeds every translation reach) while staying ML1-resident.
	WarmPages uint64
	// ColdJump is the probability that a non-hot jump goes uniformly over
	// the whole footprint (touching truly cold, ML2-resident pages).
	ColdJump float64
	// WriteFrac is the store fraction of memory accesses.
	WriteFrac float64
	// GapMean is the mean compute gap between memory accesses.
	GapMean int
	// Reuse is the fraction of accesses that re-touch a recently accessed
	// block (temporal locality absorbed by L1/L2); the rest advance the
	// spatial pattern.
	Reuse float64
}

// Specs for the paper's twelve large/irregular benchmarks plus the smaller
// sensitivity workloads. Footprints are scaled down ~100x from the paper
// (its graph workloads use ~105GB), while the TLB (8MB reach), LLC (8MB)
// and CTE cache keep their Table III sizes: the scaled footprints still
// dwarf every translation reach, so the misses stay; relative sizes across
// benchmarks are kept.
var specs = map[string]Spec{
	// GraphBIG kernels: large irregular footprints whose hot sets (vertex
	// property arrays, frontiers) far exceed every translation reach.
	// Per Figure 2, kcore and triCount cache translations well (low CTE
	// miss rate); shortestPath and canneal miss a lot.
	"pageRank":     {FootprintPages: 262144, SeqRun: 6, HotFrac: 0.85, HotPages: 12288, Reuse: 0.75, WarmPages: 16384, ColdJump: 0.02, WriteFrac: 0.30, GapMean: 100},
	"graphCol":     {FootprintPages: 262144, SeqRun: 6, HotFrac: 0.85, HotPages: 12288, Reuse: 0.75, WarmPages: 16384, ColdJump: 0.02, WriteFrac: 0.25, GapMean: 104},
	"connComp":     {FootprintPages: 258048, SeqRun: 7, HotFrac: 0.85, HotPages: 12288, Reuse: 0.75, WarmPages: 16384, ColdJump: 0.02, WriteFrac: 0.25, GapMean: 104},
	"degCentr":     {FootprintPages: 258048, SeqRun: 8, HotFrac: 0.87, HotPages: 10240, Reuse: 0.77, WarmPages: 16384, ColdJump: 0.015, WriteFrac: 0.20, GapMean: 112},
	"shortestPath": {FootprintPages: 258048, SeqRun: 4, HotFrac: 0.72, HotPages: 16384, Reuse: 0.62, WarmPages: 24576, ColdJump: 0.05, WriteFrac: 0.30, GapMean: 30},
	"bfs":          {FootprintPages: 258048, SeqRun: 6, HotFrac: 0.84, HotPages: 12288, Reuse: 0.74, WarmPages: 16384, ColdJump: 0.02, WriteFrac: 0.22, GapMean: 100},
	"dfs":          {FootprintPages: 258048, SeqRun: 5, HotFrac: 0.84, HotPages: 12288, Reuse: 0.73, PointerChase: true, WarmPages: 16384, ColdJump: 0.02, WriteFrac: 0.22, GapMean: 100},
	"kcore":        {FootprintPages: 258048, SeqRun: 16, HotFrac: 0.96, HotPages: 4096, Reuse: 0.82, WarmPages: 8192, ColdJump: 0.01, WriteFrac: 0.20, GapMean: 120}, //tmcclint:allow magic-literal (hot-set page count)
	"triCount":     {FootprintPages: 264192, SeqRun: 18, HotFrac: 0.96, HotPages: 4096, Reuse: 0.84, WarmPages: 8192, ColdJump: 0.01, WriteFrac: 0.10, GapMean: 132}, //tmcclint:allow magic-literal (hot-set page count)
	// SPEC CPU2017 (four instances of the single-threaded benchmark; the
	// aggregate footprint is modeled), scaled like the rest.
	"mcf":     {FootprintPages: 98304, SeqRun: 3, HotFrac: 0.85, HotPages: 8192, Reuse: 0.70, PointerChase: true, WarmPages: 8192, ColdJump: 0.03, WriteFrac: 0.25, GapMean: 80},
	"omnetpp": {FootprintPages: 65536, SeqRun: 4, HotFrac: 0.90, HotPages: 6144, Reuse: 0.80, PointerChase: true, WarmPages: 8192, ColdJump: 0.02, WriteFrac: 0.30, GapMean: 112},
	// PARSEC canneal: high memory access rate, poor locality.
	"canneal": {FootprintPages: 73728, SeqRun: 2, HotFrac: 0.75, HotPages: 6144, Reuse: 0.60, WarmPages: 10240, ColdJump: 0.04, WriteFrac: 0.25, GapMean: 30},

	// Smaller, regular workloads (Section VII sensitivity): footprints
	// within or near the TLB/LLC reaches, strong streaming locality.
	"rocksdb":       {FootprintPages: 65536, SeqRun: 24, HotFrac: 0.92, HotPages: 1024, Reuse: 0.85, WarmPages: 3072, ColdJump: 0.004, WriteFrac: 0.35, GapMean: 30},
	"blackscholes":  {FootprintPages: 16384, SeqRun: 48, HotFrac: 0.95, HotPages: 512, Reuse: 0.88, WarmPages: 1024, ColdJump: 0.004, WriteFrac: 0.30, GapMean: 36},
	"freqmine":      {FootprintPages: 24576, SeqRun: 32, HotFrac: 0.94, HotPages: 768, Reuse: 0.87, WarmPages: 1536, ColdJump: 0.004, WriteFrac: 0.25, GapMean: 32},
	"streamcluster": {FootprintPages: 16384, SeqRun: 64, HotFrac: 0.92, HotPages: 512, Reuse: 0.84, WarmPages: 1024, ColdJump: 0.004, WriteFrac: 0.20, GapMean: 28},
}

// LargeBenchmarks lists the paper's Figure 17 set, in its order.
func LargeBenchmarks() []string {
	return []string{
		"pageRank", "graphCol", "connComp", "degCentr", "shortestPath",
		"bfs", "dfs", "kcore", "triCount", "mcf", "omnetpp", "canneal",
	}
}

// SmallBenchmarks lists the sensitivity set.
func SmallBenchmarks() []string {
	return []string{"rocksdb", "blackscholes", "freqmine", "streamcluster"}
}

// SpecFor looks up a benchmark spec.
func SpecFor(name string) (Spec, bool) {
	s, ok := specs[name]
	s.Name = name
	return s, ok
}

// Trace is a deterministic per-core access generator for one spec.
type Trace struct {
	spec  Spec
	rng   *rng
	vbase uint64

	// Geometric-draw thresholds: maxFloatBelow of 1/SeqRun and 1/GapMean.
	runBelow, gapBelow int64

	curPage  uint64 // current page offset within footprint
	curBlock int
	run      int
	runLen   int

	hist     [64]uint64 // recently touched block addresses (reuse pool)
	histN    int
	histNext int
}

// NewTrace builds a generator; vbase is the first mapped virtual page
// number (from the address space), core seeds differ per core.
func NewTrace(spec Spec, vbase uint64, seed int64) *Trace {
	t := &Trace{
		spec:     spec,
		rng:      newRNG(seed),
		vbase:    vbase,
		runBelow: maxFloatBelow(1.0 / float64(spec.SeqRun)),
		gapBelow: maxFloatBelow(1.0 / float64(spec.GapMean)),
	}
	t.jump()
	return t
}

func (t *Trace) jump() {
	switch r := t.rng.float64(); {
	case r < t.spec.HotFrac:
		// Hot pages come in clusters of adjacent pages (slices of vertex
		// property arrays, frontier queues): a cluster shares one 8-page
		// CTE block, which is precisely the spatial locality that makes
		// page-level translation 8x more cacheable (Section IV).
		const cluster = 8
		nClusters := t.spec.HotPages / cluster
		if nClusters == 0 {
			nClusters = 1
		}
		c := uint64(t.rng.int63n(int64(nClusters)))
		stride := t.spec.FootprintPages / nClusters
		if stride < cluster {
			stride = cluster
		}
		t.curPage = (c*stride + uint64(t.rng.intn(cluster))) % t.spec.FootprintPages
	case t.rng.float64() < t.spec.ColdJump || t.spec.WarmPages == 0:
		// Truly cold: anywhere in the footprint (may hit ML2).
		t.curPage = uint64(t.rng.int63n(int64(t.spec.FootprintPages)))
	default:
		// Warm zone: big enough to defeat TLBs and CTE caches, but kept
		// resident in ML1 (cold pages are cold precisely because they are
		// almost never touched).
		t.curPage = uint64(t.rng.int63n(int64(t.spec.WarmPages)))
	}
	t.curBlock = t.rng.intn(64)
	// Geometric run length with the configured mean.
	t.run = 1 + t.rng.geom(t.runBelow, 8*t.spec.SeqRun-1)
	t.runLen = t.run
}

// Next returns the next access. The generator never ends.
func (t *Trace) Next() Access {
	// Temporal reuse: re-touch a recent block (these land in L1/L2, as the
	// bulk of real accesses do).
	if t.histN > 0 && t.rng.float64() < t.spec.Reuse {
		vaddr := t.hist[t.rng.intn(t.histN)]
		return Access{
			VAddr: vaddr,
			Write: t.rng.float64() < t.spec.WriteFrac,
			Gap:   t.gap(),
		}
	}
	vaddr := (t.vbase+t.curPage)*config.PageSize + uint64(t.curBlock*config.BlockSize)
	t.hist[t.histNext] = vaddr
	if t.histNext++; t.histNext == len(t.hist) {
		t.histNext = 0
	}
	if t.histN < len(t.hist) {
		t.histN++
	}
	a := Access{
		VAddr: vaddr,
		Write: t.rng.float64() < t.spec.WriteFrac,
		Gap:   t.gap(),
		// The first access of a run is the data-dependent jump (the
		// neighbor/pointer just loaded); streaming within the run is not.
		Dep: t.run == t.runLen,
	}
	t.run--
	if t.run <= 0 {
		t.jump()
	} else {
		t.curBlock++
		if t.curBlock == 64 {
			t.curBlock = 0
			// Every jump lands inside the footprint on the built-in
			// specs (WarmPages <= FootprintPages), so this wraps only at
			// its end; the divide keeps any other spec exact.
			if t.curPage++; t.curPage >= t.spec.FootprintPages {
				t.curPage %= t.spec.FootprintPages
			}
		}
	}
	return a
}

func (t *Trace) gap() int {
	if t.spec.GapMean <= 0 {
		return 0
	}
	// Geometric around the mean.
	return t.rng.geom(t.gapBelow, 8*t.spec.GapMean)
}

// SizeModel assigns every physical page a compressed size under both the
// page-level Deflate (for ML2 placement) and the block-level composite
// (for Compresso capacity), sampled from the benchmark's content profile.
type SizeModel struct {
	deflateSizes []int // sampled distribution, bytes per 4KB page
	blockSizes   []int
	samples      fastdiv.Divisor // by len(deflateSizes)
	zeroFrac     float64

	// Mean per-page ASIC timing measured over the samples (feeds the MC's
	// ML2 latency model).
	MeanHalfPagePS int64
	MeanCompressPS int64
}

// PageSizes reports the sampled distributions' sizes for ppn; deterministic
// in ppn. Zero pages (fraction per the profile) compress to near nothing.
func (m *SizeModel) PageSizes(ppn uint64) (deflate, block int) {
	// A cheap integer hash for deterministic per-page sampling.
	h := ppn * 0x9E3779B97F4A7C15
	if float64(h%10000)/10000 < m.zeroFrac {
		return 64, 64 // all-zero page: one tag block either way
	}
	i := int(m.samples.Mod(h >> 16))
	return m.deflateSizes[i], m.blockSizes[i]
}

// MeanCompressoPageBytes returns the expected DRAM bytes one page occupies
// under Compresso: the block-compressed size rounded up to 512B chunks
// (Compresso allocates space in 512B chunks).
func (m *SizeModel) MeanCompressoPageBytes() float64 {
	round := func(v int) float64 {
		r := (v + 511) / 512 * 512
		if r > config.PageSize {
			r = config.PageSize
		}
		return float64(r)
	}
	var b float64
	for _, v := range m.blockSizes {
		b += round(v)
	}
	b /= float64(len(m.blockSizes))
	return b*(1-m.zeroFrac) + 512*m.zeroFrac
}

// MeanML2ChunkFraction returns the expected ML1-chunk consumption per page
// stored in ML2, given the size-class menu: E[classSize(deflateSize)]/4096,
// counting incompressible pages as a full chunk (they stay in ML1 but the
// planner must budget for them).
func (m *SizeModel) MeanML2ChunkFraction(classFor func(size int) (subSize int, ok bool)) float64 {
	var sum float64
	for _, v := range m.deflateSizes {
		if sub, ok := classFor(v); ok {
			sum += float64(sub) / config.PageSize
		} else {
			sum += 1.0
		}
	}
	sum /= float64(len(m.deflateSizes))
	// Zero pages land in the smallest class.
	if sub, ok := classFor(64); ok {
		return sum*(1-m.zeroFrac) + float64(sub)/config.PageSize*m.zeroFrac
	}
	return sum
}

// MeanSizes returns the expected per-page sizes (for capacity planning).
func (m *SizeModel) MeanSizes() (deflate, block float64) {
	var d, b int
	for i := range m.deflateSizes {
		d += m.deflateSizes[i]
		b += m.blockSizes[i]
	}
	n := float64(len(m.deflateSizes))
	d64 := float64(d)/n*(1-m.zeroFrac) + 64*m.zeroFrac
	b64 := float64(b)/n*(1-m.zeroFrac) + 64*m.zeroFrac
	return d64, b64
}
