package main

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// metric is one reported number as BENCHMARK.json lists it. Bound is set
// only for end-to-end metrics: the share of the parent's median by which
// the metric may worsen before a change counts as a regression.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the simulator sees: how fast it
// simulates, how long a system takes to build, and how much memory the
// built systems hold. All are lower-is-better and reported by every
// workload. The times are at the reference clock (see clock.go), and the
// access timing is floor-seeking (see accessMin), because on the shared
// host the benchmark was set up on, contended periods slow every sample in
// them by up to 1.7x; bench/README.md gives the measured spreads the
// bounds are set from.
var endToEnd = []metric{
	{"access_ns_min", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// layers are the simulator's internal packages in access-path order, then
// the codecs, the harness packages and the hooks. bench is this
// benchmark's own code; runtime takes samples with no repo frame.
var layers = []string{
	"sim", "workload", "content", "pagetable", "tlb", "cache", "ctecache",
	"cte", "ptbcomp", "mc", "freelist", "recency", "dram",
	"memdeflate", "lz", "huffman", "blockcomp", "ibmdeflate",
	"config", "exp", "exp/engine",
	"obs", "obs/attr", "obs/timeline", "obs/heatmap", "fault", "ras",
	"bench", "runtime",
}

// layerMetricName turns a layer into a metric-name prefix ("/" is not a
// legal metric-name character).
func layerMetricName(layer string) string { return strings.ReplaceAll(layer, "/", ".") }

// countMetrics are exact simulated statistics (pka = per 1000 measured
// accesses). They are part of the golden digest, so a change that only
// speeds the simulator up must leave them unchanged.
var countMetrics = []metric{
	{"tlb.miss_pka", "count/kacc", "lower", 0},
	{"pagetable.walks_pka", "count/kacc", "lower", 0},
	{"pagetable.walk_refs_pka", "count/kacc", "lower", 0},
	{"cache.llc_miss_pka", "count/kacc", "lower", 0},
	{"cache.writeback_pka", "count/kacc", "lower", 0},
	{"ctecache.hit_rate", "ratio", "higher", 0},
	{"ctecache.dram_fetch_pka", "count/kacc", "lower", 0},
	{"mc.parallel_ok_frac", "ratio", "higher", 0},
	{"mc.parallel_wrong_frac", "ratio", "lower", 0},
	{"mc.serial_frac", "ratio", "lower", 0},
	{"mc.ml2_read_pka", "count/kacc", "lower", 0},
	{"mc.ml2_to_ml1_pka", "count/kacc", "lower", 0},
	{"mc.ml1_to_ml2_pka", "count/kacc", "lower", 0},
	{"dram.reads_pka", "count/kacc", "lower", 0},
	{"dram.writes_pka", "count/kacc", "lower", 0},
	{"dram.row_hit_rate", "ratio", "higher", 0},
	{"sim.ipc", "instr/cycle", "higher", 0},
	{"sim.l3_miss_lat_ns", "ns", "lower", 0},
}

// harnessMetrics cover the experiment engine, the per-sample middle and
// tail, the hooks, and the traced pass itself.
var harnessMetrics = []metric{
	{"engine.jobs", "count", "lower", 0},
	{"engine.memo_hits", "count", "higher", 0},
	{"engine.failed_jobs", "count", "lower", 0},
	{"engine.busy_frac", "ratio", "higher", 0},
	{"engine.job_ms_p50", "ms", "lower", 0},
	{"engine.job_ms_p90", "ms", "lower", 0},
	{"sim.access_ns_p50", "ns", "lower", 0},
	{"sim.access_ns_p75", "ns", "lower", 0},
	{"fault.injected", "count", "lower", 0},
	{"ras.retired", "count", "lower", 0},
	{"obs.attr_records", "count", "higher", 0},
	{"pass.wall_s", "s", "lower", 0},
	{"pass.cpu_s", "s", "lower", 0},
	{"pass.clock_scale", "ratio", "higher", 0},
	{"profile.samples", "count", "higher", 0},
	{"profile.cpu_ratio", "ratio", "higher", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// perLayer lists every per-layer metric in BENCHMARK.json order: host time
// per layer and phase from the traced run, then the exact counts, then the
// harness metrics.
func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		n := layerMetricName(l)
		out = append(out,
			metric{n + ".build_ms", "ms", "lower", 0},
			metric{n + ".sim_ns_per_access", "ns/acc", "lower", 0},
			metric{n + ".other_ms", "ms", "lower", 0})
	}
	out = append(out, countMetrics...)
	return append(out, harnessMetrics...)
}

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does; 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the i-th of the n-1 cut points that split v into n
// groups, by the method of Python's statistics.quantiles(v, n=n) (the
// default "exclusive" method), so the spreads printed here are the ones an
// external check computes. With fewer than two values it is that value.
func quantile(v []float64, i, n int) float64 {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
}

// quartiles returns Q1 and Q3.
func quartiles(v []float64) (q1, q3 float64) {
	return quantile(v, 1, 4), quantile(v, 3, 4)
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// nearestRank returns the p-quantile by the nearest-rank method: the
// smallest value with at least a share p of the values at or below it. It
// never interpolates, so with ten or fewer values its p10 is the minimum.
func nearestRank(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(p * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// groupStat applies f to each group's samples and returns the geometric
// mean over groups, so that no single group's scale sets the result.
func groupStat(groups map[string][]float64, f func([]float64) float64) float64 {
	var v []float64
	for _, g := range sortedKeys(groups) {
		v = append(v, f(groups[g]))
	}
	return geomean(v)
}

// accessMin is the end-to-end simulation speed: per sample group the
// fastest of its host ns per simulated access, then the geometric mean
// over groups. A contended period slows every sample in it, so the fastest
// sample is what moves only when the code's own cost moves.
func accessMin(groups map[string][]float64) float64 {
	return groupStat(groups, slices.Min[[]float64])
}

// setupSeconds sums, over the setup systems, the median of each system's
// builds.
func setupSeconds(builds map[string][]float64) float64 {
	t := 0.0
	for _, k := range sortedKeys(builds) {
		t += median(builds[k])
	}
	return t
}

// pool merges sample groups from several passes.
func pool(groups ...map[string][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, g := range groups {
		for k, v := range g {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

// geomean is the geometric mean of positive values; 0 if any is not
// positive or there are none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
