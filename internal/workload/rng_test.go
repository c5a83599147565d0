package workload

import (
	"math"
	"math/rand"
	"testing"

	"tmcc/internal/config"
)

// rngSeeds covers zero, a negative seed, ordinary seeds, seeds at and past
// 2^31 (the stdlib reduces seeds mod 2^31-1), and 89482311, which the
// stdlib substitutes for a zero seed.
var rngSeeds = []int64{0, -1, -42, 42, 7, 1 << 31, 1<<31 + 5, 1<<40 + 3, 89482311}

func TestRNGMatchesStdlib(t *testing.T) {
	intns := []int{1, 2, 7, 8, 64, 100, 1 << 20, 1<<20 + 1, math.MaxInt32, 1 << 33, 3 << 33}
	int63ns := []int64{1, 2, 3, 64, 1536, 16384, 258048, 1 << 40, 1<<62 + 1, math.MaxInt64}
	const draws = 250_000
	for _, seed := range rngSeeds {
		want := rand.New(rand.NewSource(seed))
		got := newRNG(seed)
		for i := 0; i < draws; i++ {
			switch i % 4 {
			case 0:
				if g, w := got.float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: float64 %v, stdlib %v", seed, i, g, w)
				}
			case 1:
				n := intns[(i/4)%len(intns)]
				if g, w := got.intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: intn(%d) %d, stdlib %d", seed, i, n, g, w)
				}
			case 2:
				n := int63ns[(i/4)%len(int63ns)]
				if g, w := got.int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d draw %d: int63n(%d) %d, stdlib %d", seed, i, n, g, w)
				}
			case 3:
				if g, w := got.int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: int63 %d, stdlib %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestGeomMatchesLoop pins geom to the loop it replaces over rand.Rand,
// for means from 1 to past every spec's, including the p >= 1 and p < 0
// edges.
func TestGeomMatchesLoop(t *testing.T) {
	ps := []float64{-1, 0, 1.0 / 128, 1.0 / 30, 1.0 / 3, 0.5, 1, 2}
	for _, seed := range rngSeeds {
		want := rand.New(rand.NewSource(seed))
		got := newRNG(seed)
		for i := 0; i < 20_000; i++ {
			p := ps[i%len(ps)]
			max := 1 + i%300
			w := 0
			for want.Float64() > p {
				if w++; w > max {
					break
				}
			}
			if g := got.geom(maxFloatBelow(p), max); g != w {
				t.Fatalf("seed %d draw %d: geom(p=%v, max=%d) = %d, loop %d", seed, i, p, max, g, w)
			}
		}
	}
}

// TestGeomEdgeDraws plants draws at the edges geom must decide exactly
// as Float64 does: a value equal to below stops, below+1 counts, a value
// that rounds to 1.0 is skipped uncounted, the sign bit is masked off, and
// the count stops at max+1.
func TestGeomEdgeDraws(t *testing.T) {
	const p, max = 1.0 / 30, 3
	below := maxFloatBelow(p)
	cases := [][]int64{
		{below},
		{below + 1, below},
		{floatOneCut, below},
		{floatOneCut - 1, floatOneCut, math.MaxInt64, 0},
		{math.MinInt64 | below},
		{math.MinInt64 | (below + 1), 0},
		{below + 1, below + 1, below + 1, below + 1, below + 1},
	}
	for _, draws := range cases {
		// With tap=300 and feed=600 the first 300 steps add vec[599-j]
		// to a zero vec[299-j], so output j is vec[599-j].
		var want rng
		want.tap, want.feed = 300, 600
		for j, d := range draws {
			want.vec[599-j] = d
		}
		got := want
		w := 0
		for want.float64() > p {
			if w++; w > max {
				break
			}
		}
		if g := got.geom(below, max); g != w || got != want {
			t.Errorf("draws %v: geom = %d at tap %d feed %d, loop %d at tap %d feed %d",
				draws, g, got.tap, got.feed, w, want.tap, want.feed)
		}
	}
}

func TestGeomThresholds(t *testing.T) {
	check := func(what string, p float64) {
		t.Helper()
		below := maxFloatBelow(p)
		if !(float64(below)/(1<<63) <= p && p < float64(below+1)/(1<<63)) {
			t.Errorf("%s: maxFloatBelow(%v) = %d is not the last value at or below p", what, p, below)
		}
	}
	for _, b := range append(LargeBenchmarks(), SmallBenchmarks()...) {
		s, _ := SpecFor(b)
		check(b+" 1/SeqRun", 1/float64(s.SeqRun))
		check(b+" 1/GapMean", 1/float64(s.GapMean))
	}
	check("one ulp below 1", math.Nextafter(1, 0))
	if c := floatOneCut; !(float64(c-1)/(1<<63) < 1 && float64(c)/(1<<63) == 1) {
		t.Errorf("floatOneCut %d is not the first value that rounds to 1.0", c)
	}
	if b := maxFloatBelow(-0.5); b != -1 {
		t.Errorf("maxFloatBelow(-0.5) = %d, want -1", b)
	}
	if b := maxFloatBelow(1); b != math.MaxInt64 {
		t.Errorf("maxFloatBelow(1) = %d, want MaxInt64", b)
	}
}

func TestTraceMatchesReference(t *testing.T) {
	const accesses = 100_000
	for _, b := range append(LargeBenchmarks(), SmallBenchmarks()...) {
		spec, _ := SpecFor(b)
		for _, seed := range []int64{42, 143, -7, 1<<31 + 5} {
			got, want := NewTrace(spec, 0x4000, seed), newRefTrace(spec, 0x4000, seed)
			for i := 0; i < accesses; i++ {
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("%s seed %d access %d: %+v, reference %+v", b, seed, i, g, w)
				}
			}
		}
	}
}

// refTrace is the trace generator as written over *rand.Rand before it
// moved onto rng, kept verbatim as the oracle the stream must match.
type refTrace struct {
	spec  Spec
	rng   *rand.Rand
	vbase uint64

	curPage  uint64 // current page offset within footprint
	curBlock int
	run      int
	runLen   int

	hist     [64]uint64 // recently touched block addresses (reuse pool)
	histN    int
	histNext int
}

func newRefTrace(spec Spec, vbase uint64, seed int64) *refTrace {
	t := &refTrace{spec: spec, rng: rand.New(rand.NewSource(seed)), vbase: vbase}
	t.jump()
	return t
}

func (t *refTrace) jump() {
	switch r := t.rng.Float64(); {
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
		c := uint64(t.rng.Int63n(int64(nClusters)))
		stride := t.spec.FootprintPages / nClusters
		if stride < cluster {
			stride = cluster
		}
		t.curPage = (c*stride + uint64(t.rng.Intn(cluster))) % t.spec.FootprintPages
	case t.rng.Float64() < t.spec.ColdJump || t.spec.WarmPages == 0:
		// Truly cold: anywhere in the footprint (may hit ML2).
		t.curPage = uint64(t.rng.Int63n(int64(t.spec.FootprintPages)))
	default:
		// Warm zone: big enough to defeat TLBs and CTE caches, but kept
		// resident in ML1 (cold pages are cold precisely because they are
		// almost never touched).
		t.curPage = uint64(t.rng.Int63n(int64(t.spec.WarmPages)))
	}
	t.curBlock = t.rng.Intn(64)
	// Geometric run length with the configured mean.
	t.run = 1
	for t.rng.Float64() > 1.0/float64(t.spec.SeqRun) {
		t.run++
		if t.run > 8*t.spec.SeqRun {
			break
		}
	}
	t.runLen = t.run
}

func (t *refTrace) Next() Access {
	// Temporal reuse: re-touch a recent block (these land in L1/L2, as the
	// bulk of real accesses do).
	if t.histN > 0 && t.rng.Float64() < t.spec.Reuse {
		vaddr := t.hist[t.rng.Intn(t.histN)]
		return Access{
			VAddr: vaddr,
			Write: t.rng.Float64() < t.spec.WriteFrac,
			Gap:   t.gap(),
		}
	}
	vaddr := (t.vbase+t.curPage)*config.PageSize + uint64(t.curBlock*config.BlockSize)
	t.hist[t.histNext] = vaddr
	t.histNext = (t.histNext + 1) % len(t.hist)
	if t.histN < len(t.hist) {
		t.histN++
	}
	a := Access{
		VAddr: vaddr,
		Write: t.rng.Float64() < t.spec.WriteFrac,
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
			t.curPage = (t.curPage + 1) % t.spec.FootprintPages
		}
	}
	return a
}

func (t *refTrace) gap() int {
	if t.spec.GapMean <= 0 {
		return 0
	}
	// Geometric around the mean.
	g := 0
	for t.rng.Float64() > 1.0/float64(t.spec.GapMean) {
		g++
		if g > 8*t.spec.GapMean {
			break
		}
	}
	return g
}

var traceSink Access

// BenchmarkTraceNext measures one access of the steady benchmarks'
// traces: the workload layer's share of the simulated access path.
func BenchmarkTraceNext(b *testing.B) {
	for _, name := range []string{"shortestPath", "canneal", "mcf", "pageRank"} {
		b.Run(name, func(b *testing.B) {
			spec, _ := SpecFor(name)
			tr := NewTrace(spec, 0x4000, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				traceSink = tr.Next()
			}
		})
	}
}
