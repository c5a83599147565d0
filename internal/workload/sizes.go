package workload

import (
	"fmt"
	"runtime"
	"sync"

	"tmcc/internal/blockcomp"
	"tmcc/internal/config"
	"tmcc/internal/content"
	"tmcc/internal/fastdiv"
	"tmcc/internal/memdeflate"
	"tmcc/internal/obs"
)

// sizeModelKey identifies one deterministic size-model computation; all
// inputs are comparable values. The profile enters by its content key,
// not its name: profiles with equal keys sample identical pages, so they
// share one model (the nine GraphBIG kernels are one entry).
type sizeModelKey struct {
	content  content.Key
	nSamples int
	seed     int64
	params   memdeflate.Params
}

type sizeModelCall struct {
	done chan struct{}
	m    *SizeModel
}

// defaultSamples is the sample count used when the caller passes <= 0.
const defaultSamples = 256

var (
	sizeModelMu sync.Mutex
	sizeModels  = map[sizeModelKey]*sizeModelCall{}
)

// NewSizeModel samples nSamples pages (256 when nSamples <= 0) of the
// benchmark's content profile through the real compressors — the
// memory-specialized Deflate for page-level sizes and the best-of block
// composite for Compresso — and returns the per-page size assigner.
// Deterministic in (content profile, nSamples, seed, deflateParams):
// benchmarks whose profiles have equal content.Keys get the same model.
//
// Building the model means compressing nSamples full pages through both
// codecs, spread over every CPU (see buildSizeModel); a cold build takes
// 19–23 ms on 2 CPUs and 35–45 ms on one (BenchmarkSizeModelBuild), about
// as long as the rest of a TMCC system build. Results are memoized per
// process: every simulation of a content profile shares one model.
// The returned *SizeModel is immutable after construction and safe for
// concurrent use; callers must not modify it. Concurrent first requests
// for the same key coalesce onto a single build.
func NewSizeModel(benchmark string, nSamples int, seed int64, deflateParams memdeflate.Params) (*SizeModel, error) {
	return NewSizeModelObserved(benchmark, nSamples, seed, deflateParams, nil)
}

// NewSizeModelObserved is NewSizeModel with observability attached: memo
// hits and actual builds are counted under "workload.sizemodel.", and the
// build's codec reports its per-page compression counters. The observer
// never enters the memo key — an observed and an unobserved caller share
// the same cached model.
func NewSizeModelObserved(benchmark string, nSamples int, seed int64, deflateParams memdeflate.Params, ob *obs.Observer) (*SizeModel, error) {
	prof, ok := content.ProfileFor(benchmark)
	if !ok {
		return nil, fmt.Errorf("workload: no content profile for %q", benchmark)
	}
	if nSamples <= 0 {
		nSamples = defaultSamples
	}
	key := sizeModelKey{prof.Key(), nSamples, seed, deflateParams}
	sizeModelMu.Lock()
	c, ok := sizeModels[key]
	if ok {
		sizeModelMu.Unlock()
		ob.Counter("workload.sizemodel.memoHits").Inc()
		<-c.done
		return c.m, nil
	}
	c = &sizeModelCall{done: make(chan struct{})}
	sizeModels[key] = c
	sizeModelMu.Unlock()
	ob.Counter("workload.sizemodel.builds").Inc()
	c.m = buildSizeModel(prof, nSamples, seed, deflateParams, ob)
	close(c.done)
	return c.m, nil
}

// buildSizeModel compresses nSamples (> 0) pages of prof's content with
// the size-only codec paths; it is the memo's cold path. The pages are
// drawn from prof.Generator(seed) in order on this goroutine and
// compressed by GOMAXPROCS workers, each with its own codecs, as the
// paper's ASIC pipelines two independent pages. Each result lands in its
// sample's slot and the timing sums are taken after the workers finish,
// so the model is the same for any CPU count.
func buildSizeModel(prof content.Profile, nSamples int, seed int64, deflateParams memdeflate.Params, ob *obs.Observer) *SizeModel {
	m := &SizeModel{
		deflateSizes: make([]int, nSamples),
		blockSizes:   make([]int, nSamples),
		samples:      fastdiv.New(uint64(nSamples)),
		zeroFrac:     prof.ZeroFraction,
	}
	halfPS := make([]config.Time, nSamples)
	compPS := make([]config.Time, nSamples)
	type sample struct {
		i    int
		page []byte
	}
	work := make(chan sample, nSamples)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), nSamples) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codec := memdeflate.New(deflateParams)
			codec.Observe(ob)
			best := blockcomp.NewBest()
			for s := range work {
				size, st := codec.CompressedSize(s.page)
				m.deflateSizes[s.i] = size
				tm := codec.Timing(st)
				halfPS[s.i], compPS[s.i] = tm.HalfPageLatency, tm.CompressorOcc
				m.blockSizes[s.i] = best.PageSize(s.page)
			}
		}()
	}
	gen := prof.Generator(seed)
	for i := range nSamples {
		work <- sample{i, gen.Page()}
	}
	close(work)
	wg.Wait()
	var halfSum, compSum int64
	for i := range nSamples {
		halfSum += int64(halfPS[i])
		compSum += int64(compPS[i])
	}
	m.MeanHalfPagePS = halfSum / int64(nSamples)
	m.MeanCompressPS = compSum / int64(nSamples)
	return m
}
