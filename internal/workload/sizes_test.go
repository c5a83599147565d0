package workload

import (
	"reflect"
	"testing"

	"tmcc/internal/blockcomp"
	"tmcc/internal/content"
	"tmcc/internal/fastdiv"
	"tmcc/internal/memdeflate"
	"tmcc/internal/obs"
)

// forgetSizeModels drops the memo entries for benchmark's content at seed,
// so the next request builds cold even when another test (or -count) got
// there first.
func forgetSizeModels(t *testing.T, benchmark string, seed int64) {
	t.Helper()
	prof, ok := content.ProfileFor(benchmark)
	if !ok {
		t.Fatalf("no profile %q", benchmark)
	}
	sizeModelMu.Lock()
	defer sizeModelMu.Unlock()
	for k := range sizeModels {
		if k.content == prof.Key() && k.seed == seed {
			delete(sizeModels, k)
		}
	}
}

func TestSizeModelDefaultSamplesShareOneBuild(t *testing.T) {
	const seed = 0x5a3e
	forgetSizeModels(t, "rocksdb", seed)
	ob := obs.New()
	a, err := NewSizeModelObserved("rocksdb", 0, seed, memdeflate.DefaultParams(), ob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSizeModelObserved("rocksdb", defaultSamples, seed, memdeflate.DefaultParams(), ob)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("nSamples 0 and the default count built two models")
	}
	if n := ob.Counter("workload.sizemodel.builds").Value(); n != 1 {
		t.Errorf("workload.sizemodel.builds = %d, want 1", n)
	}
	if len(a.deflateSizes) != defaultSamples {
		t.Errorf("nSamples 0 sampled %d pages, want %d", len(a.deflateSizes), defaultSamples)
	}
}

func TestSizeModelSharedByContentKey(t *testing.T) {
	const seed = 0x6b4f
	forgetSizeModels(t, "pageRank", seed)
	ob := obs.New()
	pr, err := NewSizeModelObserved("pageRank", 64, seed, memdeflate.DefaultParams(), ob)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSizeModelObserved("shortestPath", 64, seed, memdeflate.DefaultParams(), ob)
	if err != nil {
		t.Fatal(err)
	}
	if pr != sp {
		t.Error("pageRank and shortestPath share a content profile but got two models")
	}
	if n := ob.Counter("workload.sizemodel.builds").Value(); n != 1 {
		t.Errorf("workload.sizemodel.builds = %d, want 1", n)
	}

	fm, err := NewSizeModel("freqmine", 64, seed, memdeflate.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewSizeModel("suite-parsec", 64, seed, memdeflate.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if fm == ps {
		t.Fatal("freqmine and suite-parsec differ in ZeroFraction but share a model")
	}
	if fm.zeroFrac == ps.zeroFrac {
		t.Errorf("both models carry zero fraction %v", fm.zeroFrac)
	}
}

// buildSizeModelSerial is the one-goroutine build loop buildSizeModel
// replaced, kept as the reference its parallel split must reproduce.
func buildSizeModelSerial(prof content.Profile, nSamples int, seed int64, deflateParams memdeflate.Params) *SizeModel {
	gen := prof.Generator(seed)
	codec := memdeflate.New(deflateParams)
	best := blockcomp.NewBest()
	m := &SizeModel{
		deflateSizes: make([]int, nSamples),
		blockSizes:   make([]int, nSamples),
		samples:      fastdiv.New(uint64(nSamples)),
		zeroFrac:     prof.ZeroFraction,
	}
	var halfSum, compSum int64
	for i := 0; i < nSamples; i++ {
		page := gen.Page()
		size, st := codec.CompressedSize(page)
		m.deflateSizes[i] = size
		tm := codec.Timing(st)
		halfSum += int64(tm.HalfPageLatency)
		compSum += int64(tm.CompressorOcc)
		m.blockSizes[i] = best.PageSize(page)
	}
	m.MeanHalfPagePS = halfSum / int64(nSamples)
	m.MeanCompressPS = compSum / int64(nSamples)
	return m
}

// TestSizeModelMatchesSerial requires the parallel build to give every
// SizeModel field the serial loop gives, for each content profile at two
// seeds. Profiles with equal content keys sample the same pages, so each
// key is built once. Run it at several -cpu values: the split must not
// depend on the worker count. The builds share one observer, whose page
// counter every worker bumps, and it must count every sampled page.
func TestSizeModelMatchesSerial(t *testing.T) {
	ob := obs.New()
	builds := 0
	for _, seed := range []int64{42, 7} {
		seen := map[content.Key]bool{}
		for _, name := range content.Profiles() {
			prof, _ := content.ProfileFor(name)
			if seen[prof.Key()] {
				continue
			}
			seen[prof.Key()] = true
			got := buildSizeModel(prof, defaultSamples, seed, memdeflate.DefaultParams(), ob)
			builds++
			want := buildSizeModelSerial(prof, defaultSamples, seed, memdeflate.DefaultParams())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: parallel build differs from the serial loop", name, seed)
			}
		}
	}
	if n := ob.Counter("codec.memdeflate.pages").Value(); n != uint64(builds*defaultSamples) {
		t.Errorf("codec.memdeflate.pages = %d after %d builds, want %d", n, builds, builds*defaultSamples)
	}
}

var sizeModelSink *SizeModel

// BenchmarkSizeModelBuild measures one cold size-model build — 256
// sampled pages through the size-only Deflate and block codecs — for each
// steady benchmark, bypassing the memo.
func BenchmarkSizeModelBuild(b *testing.B) {
	for _, name := range []string{"shortestPath", "canneal", "mcf", "pageRank"} {
		b.Run(name, func(b *testing.B) {
			prof, _ := content.ProfileFor(name)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizeModelSink = buildSizeModel(prof, defaultSamples, 42, memdeflate.DefaultParams(), nil)
			}
		})
	}
}

// TestPageSizesMatchesModulo: PageSizes picks sample (h>>16) % n through
// the model's Divisor, with the shift and mask at the power-of-two sample
// counts and the divide at 100.
func TestPageSizesMatchesModulo(t *testing.T) {
	for _, n := range []int{8, 64, 256, 100} {
		m := &SizeModel{deflateSizes: make([]int, n), blockSizes: make([]int, n), samples: fastdiv.New(uint64(n))}
		for i := range n {
			m.deflateSizes[i], m.blockSizes[i] = i, n+i
		}
		for ppn := uint64(0); ppn < 5000; ppn++ {
			want := int((ppn * 0x9E3779B97F4A7C15 >> 16) % uint64(n))
			if d, b := m.PageSizes(ppn); d != want || b != n+want {
				t.Fatalf("n=%d ppn=%d: sample %d/%d, want %d", n, ppn, d, b-n, want)
			}
		}
	}
}
