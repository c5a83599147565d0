package content

import "sort"

// Profile describes the synthetic memory contents of one benchmark: the
// archetype mix for its non-zero pages plus the fraction of all-zero pages
// (which the paper's dump methodology deletes before computing ratios).
// The mixes were solved by cmd/calibrate so that page-level Deflate and
// best-of-block compression land on the paper's per-benchmark numbers
// (Table IV columns D/E for the performance benchmarks, Figure 15 for the
// suite dumps); targets are recorded here for the calibration tests.
type Profile struct {
	Name         string
	Mix          Mix
	ZeroFraction float64 // all-zero pages in the raw footprint
	// Paper targets for reference and regression tests:
	WantDeflateRatio float64 // page-level memory-specialized Deflate
	WantBlockRatio   float64 // best of BDI/BPC/CPack/Zero per 64B block
}

// graphMix is shared by the nine GraphBIG kernels: they traverse the same
// social-network dataset, so their heaps look alike (Table IV reports 3.00x
// Deflate and 1.25-1.30x block-level for all nine).
var graphMix = Mix{RepeatedStructs: 0.52, SmallInts: 0.20, CSR: 0.10, Random: 0.18}

var profiles = map[string]Profile{
	// --- Large/irregular performance benchmarks (Figures 16-21, Table IV) ---
	"pageRank":     {Name: "pageRank", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.29},
	"graphCol":     {Name: "graphCol", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.28},
	"connComp":     {Name: "connComp", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.26},
	"degCentr":     {Name: "degCentr", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.27},
	"shortestPath": {Name: "shortestPath", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.27},
	"bfs":          {Name: "bfs", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.27},
	"dfs":          {Name: "dfs", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.29},
	"kcore":        {Name: "kcore", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.25},
	"triCount":     {Name: "triCount", Mix: graphMix, ZeroFraction: 0.05, WantDeflateRatio: 3.00, WantBlockRatio: 1.30},
	"mcf": {Name: "mcf",
		Mix:          Mix{RepeatedStructs: 0.56, Pointers: 0.20, Random: 0.24},
		ZeroFraction: 0.03, WantDeflateRatio: 2.50, WantBlockRatio: 1.08},
	"omnetpp": {Name: "omnetpp",
		Mix:          Mix{Text: 0.28, SmallInts: 0.46, Pointers: 0.12, Random: 0.14},
		ZeroFraction: 0.03, WantDeflateRatio: 2.50, WantBlockRatio: 1.60},
	"canneal": {Name: "canneal",
		Mix:          Mix{Pointers: 0.30, Floats: 0.06, Text: 0.24, Random: 0.40},
		ZeroFraction: 0.03, WantDeflateRatio: 1.50, WantBlockRatio: 1.15},

	// --- Figure 15 dump suites (>200MB-footprint programs, per suite) ---
	"suite-graphbig": {Name: "suite-graphbig", Mix: graphMix, ZeroFraction: 0.10,
		WantDeflateRatio: 3.00, WantBlockRatio: 1.27},
	"suite-parsec": {Name: "suite-parsec",
		Mix:          Mix{Text: 0.44, SmallInts: 0.38, Floats: 0.18},
		ZeroFraction: 0.10, WantDeflateRatio: 2.80, WantBlockRatio: 1.45},
	"suite-spec": {Name: "suite-spec",
		Mix:          Mix{RepeatedStructs: 0.40, SmallInts: 0.36, Pointers: 0.08, Random: 0.16},
		ZeroFraction: 0.10, WantDeflateRatio: 3.00, WantBlockRatio: 1.40},
	"suite-dacapo": {Name: "suite-dacapo",
		Mix:          Mix{RepeatedStructs: 0.40, SparseZero: 0.40, Random: 0.20},
		ZeroFraction: 0.15, WantDeflateRatio: 4.00, WantBlockRatio: 1.60},
	"suite-renaissance": {Name: "suite-renaissance",
		Mix:          Mix{RepeatedStructs: 0.36, SparseZero: 0.28, Pointers: 0.34, Random: 0.02},
		ZeroFraction: 0.15, WantDeflateRatio: 4.20, WantBlockRatio: 1.65},
	"suite-spark": {Name: "suite-spark",
		Mix:          Mix{RepeatedStructs: 0.34, Text: 0.08, SmallInts: 0.50, Random: 0.08},
		ZeroFraction: 0.15, WantDeflateRatio: 3.80, WantBlockRatio: 1.55},

	// --- Smaller workloads (Section VII sensitivity) ---
	"rocksdb": {Name: "rocksdb",
		Mix:          Mix{Text: 0.34, SmallInts: 0.40, Random: 0.26},
		ZeroFraction: 0.05, WantDeflateRatio: 2.20, WantBlockRatio: 1.40},
	"blackscholes": {Name: "blackscholes",
		Mix:          Mix{SparseZero: 0.32, Text: 0.64, Random: 0.04},
		ZeroFraction: 0.10, WantDeflateRatio: 4.50, WantBlockRatio: 1.45},
	"freqmine": {Name: "freqmine",
		Mix:          Mix{Text: 0.44, SmallInts: 0.38, Floats: 0.18},
		ZeroFraction: 0.08, WantDeflateRatio: 2.80, WantBlockRatio: 1.45},
	"streamcluster": {Name: "streamcluster",
		Mix:          Mix{Floats: 0.30, SmallInts: 0.42, Text: 0.18, Random: 0.10},
		ZeroFraction: 0.05, WantDeflateRatio: 2.20, WantBlockRatio: 1.45},
}

// ProfileFor returns the content profile for a benchmark; ok is false for
// unknown names.
func ProfileFor(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// Profiles lists all known profile names in sorted (deterministic) order.
func Profiles() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Key identifies a profile's content independently of its name: the mix
// weights and the zero-page fraction, as comparable values. Profiles with
// equal keys generate identical page streams for every seed (Generator
// reads nothing else), so anything sampled from them can be shared.
type Key struct {
	mix          [nArchetypes]float64
	zeroFraction float64
}

// Key returns the profile's content identity.
func (p Profile) Key() Key {
	k := Key{zeroFraction: p.ZeroFraction}
	for a := range k.mix {
		k.mix[a] = p.Mix[Archetype(a)]
	}
	return k
}

// Generator returns a page generator for this profile's non-zero pages.
func (p Profile) Generator(seed int64) *Generator {
	return NewGenerator(p.Mix, seed)
}
