package workload

import (
	"testing"

	"tmcc/internal/content"
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
