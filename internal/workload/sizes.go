package workload

import (
	"fmt"
	"sync"

	"tmcc/internal/blockcomp"
	"tmcc/internal/content"
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
// Building the model means compressing nSamples full pages, which used to
// dominate simulator construction (~35% of a run), so results are memoized
// per process: every simulation of a content profile shares one model.
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
// the size-only codec paths; it is the memo's cold path.
func buildSizeModel(prof content.Profile, nSamples int, seed int64, deflateParams memdeflate.Params, ob *obs.Observer) *SizeModel {
	gen := prof.Generator(seed)
	codec := memdeflate.New(deflateParams)
	codec.Observe(ob)
	best := blockcomp.NewBest()
	m := &SizeModel{
		deflateSizes: make([]int, nSamples),
		blockSizes:   make([]int, nSamples),
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
