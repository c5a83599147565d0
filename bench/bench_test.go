package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads this program reports, and checks the names are legal.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d (at most 16)", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, program has %+v", i, got, m)
		}
	}
	pl := perLayer()
	if len(bj.PerLayer) != len(pl) || len(pl) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d (at most 128)", len(bj.PerLayer), len(pl))
	}
	for i, m := range pl {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, program has %+v", i, got, m)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), pl...) {
		if !legalName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is illegal or repeated", m.Name)
		}
		seen[m.Name] = true
		if !legalUnit.MatchString(m.Unit) {
			t.Errorf("metric %s: illegal unit %q", m.Name, m.Unit)
		}
	}
}

// resultMetrics renders the result line of r and returns its metric names
// and units.
func resultMetrics(t *testing.T, r run) (map[string]string, resultLine) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	var line resultLine
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for name, v := range line.Metrics {
		units[name] = v.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return units, line
}

// TestWorkloadsCheckSize runs every workload in this process at the check
// size: two same-seed passes must give identical digests, matching the
// golden ones, and the result line must carry exactly BENCHMARK.json's
// end-to-end metrics, none of them 0.
func TestWorkloadsCheckSize(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := map[string]string{}
	for _, m := range bj.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, err := runPass(w, checkSeed, checkSize, true, "")
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPass(w, checkSeed, checkSize, true, "")
			if err != nil {
				t.Fatal(err)
			}
			if a.Golden != "verified" {
				t.Errorf("golden %q, want verified", a.Golden)
			}
			if len(a.Failures) > 0 {
				t.Fatalf("failed ops: %v", a.Failures)
			}
			if a.Ops == 0 || len(a.Digests) != a.Ops {
				t.Fatalf("%d ops, %d digests", a.Ops, len(a.Digests))
			}
			for op, d := range a.Digests {
				if b.Digests[op] != d {
					t.Errorf("op %s: digests differ between same-seed passes", op)
				}
			}
			// b ran after a in the same process and found paper-quick's
			// engine memo warm, so only a stands for a timed pass.
			units, line := resultMetrics(t, run{check: b, passes: []passResult{a}})
			if !maps.Equal(units, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", units, want)
			}
			for name, v := range line.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
				}
			}
			if !line.Correct || line.Attempted != 2*a.Ops || line.Failed != 0 {
				t.Errorf("result line %+v", line)
			}
		})
	}
}

// TestTracedPass profiles one small pass: its three files appear, and the
// result line carries exactly BENCHMARK.json's per-layer metrics.
func TestTracedPass(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := map[string]string{}
	for _, m := range bj.PerLayer {
		want[m.Name] = m.Unit
	}
	w, _ := workloadByName("tmcc-steady")
	dir := t.TempDir()
	res, err := runPass(w, 7, checkSize, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Golden != "verified" || len(res.Failures) > 0 {
		t.Errorf("golden %s, failures %v", res.Golden, res.Failures)
	}
	for _, suffix := range []string{".pprof", ".spans.json", ".layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, w.Name+suffix)); err != nil {
			t.Error(err)
		}
	}
	res.Metrics["trace_overhead_frac"] = 0
	units, _ := resultMetrics(t, run{check: res, passes: []passResult{res}, traced: &res})
	if !maps.Equal(units, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json: got %d, want %d", len(units), len(want))
	}
}

// TestGoldenFiles checks the committed digests cover every workload at
// both sizes for both committed seeds.
func TestGoldenFiles(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		g, err := loadGolden(seed)
		if err != nil || g == nil {
			t.Fatalf("seed %d: golden %v, %v", seed, g, err)
		}
		for _, w := range workloads {
			for _, sz := range []size{fullSize, checkSize} {
				if key := goldenKey(w.Name, sz); len(g[key]) == 0 {
					t.Errorf("seed %d: no golden digests for %s", seed, key)
				}
			}
		}
	}
	if g, err := loadGolden(123456); g != nil || err != nil {
		t.Errorf("unknown seed: golden %v, %v; want none", g, err)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeCapturedProfile decodes a CPU profile captured here: the
// spinning function shows up and the layer cells sum to the total.
func TestDecodeCapturedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleCount() == 0 || p.TotalCPUNanos() == 0 {
		t.Fatalf("empty profile: %d samples, %d ns", p.SampleCount(), p.TotalCPUNanos())
	}
	found := false
	for _, s := range p.Samples {
		for _, f := range s.Frames {
			found = found || strings.HasSuffix(f, ".spin")
		}
	}
	if !found {
		t.Error("no sample names the spinning function")
	}
	if lt := attribute(p); lt.total() != p.TotalCPUNanos() || lt["bench"][phaseOther] == 0 {
		t.Errorf("layers sum to %d ns (bench %d), profile holds %d", lt.total(), lt["bench"][phaseOther], p.TotalCPUNanos())
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3|wireVarint), v)
}

func (b pb) msg(field int, m []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|wireBytes)
	return append(binary.AppendUvarint(b, uint64(len(m))), m...)
}

// handProfile encodes a profile whose samples have the given stacks (leaf
// first), each 10 ms of CPU. A stack entry "a+b" is one location where a
// is inlined into b.
func handProfile(stacks ...[]string) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var out pb
	out = out.msg(fProfileSampleType, pb(nil).varint(fValueTypeType, str("samples")).varint(fValueTypeUnit, str("count")))
	out = out.msg(fProfileSampleType, pb(nil).varint(fValueTypeType, str("cpu")).varint(fValueTypeUnit, str("nanoseconds")))
	funcs := map[string]uint64{}
	locID := uint64(0)
	for _, stack := range stacks {
		var locs pb
		for _, loc := range stack {
			locID++
			var l pb
			l = l.varint(fLocationID, locID)
			for _, fn := range strings.Split(loc, "+") {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					out = out.msg(fProfileFunction, pb(nil).varint(fFunctionID, id).varint(fFunctionName, str(fn)))
				}
				l = l.msg(fLocationLine, pb(nil).varint(fLineFunction, id))
			}
			out = out.msg(fProfileLocation, l)
			locs = binary.AppendUvarint(locs, locID)
		}
		values := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 10e6)
		out = out.msg(fProfileSample, pb(nil).msg(fSampleLocation, locs).msg(fSampleValue, values))
	}
	for _, s := range strs {
		out = out.msg(fProfileStrings, []byte(s))
	}
	return out
}

var phaseNames = [numPhases]string{"build", "sim", "other"}

// TestAttribution pins the attribution rules on hand-built stacks.
func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		layer string
		phase int
		why   string
	}{
		{[]string{"tmcc/internal/ctecache.(*Buffer).Lookup+tmcc/internal/sim.(*Runner).memAccess", "tmcc/internal/sim.(*Runner).step", "tmcc/internal/sim.(*Runner).runAccesses", "tmcc/internal/sim.(*Runner).Steps+main.runSteady", "main.main"},
			"ctecache", phaseSim, "an inlined ctecache frame under sim goes to ctecache"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
			"runtime", phaseOther, "runtime-only stacks go to runtime"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "tmcc/internal/freelist.New", "tmcc/internal/mc.New", "tmcc/internal/sim.NewRunnerFull", "tmcc/internal/sim.NewRunner", "main.runSteady"},
			"freelist", phaseBuild, "NewRunnerFull makes the build phase"},
		{[]string{"tmcc/internal/check.Assert", "tmcc/internal/exp/engine.(*Engine).Run", "tmcc/internal/exp.Fig17"},
			"exp/engine", phaseOther, "unlisted packages are skipped, nested packages keep their path"},
		{[]string{"tmcc/internal/mc.sum[go.shape.int]", "tmcc/internal/sim.(*Runner).Run"},
			"mc", phaseSim, "generic instantiations keep their package"},
	}
	for _, c := range cases {
		p, err := decodeProfile(handProfile(c.stack))
		if err != nil {
			t.Fatal(err)
		}
		lt := attribute(p)
		if got := lt[c.layer][c.phase]; got != 10e6 || lt.total() != p.TotalCPUNanos() {
			t.Errorf("%s: %s/%s got %d ns of %d", c.why, c.layer, phaseNames[c.phase], got, lt.total())
		}
	}
	var all [][]string
	for _, c := range cases {
		all = append(all, c.stack)
	}
	p, err := decodeProfile(handProfile(all...))
	if err != nil {
		t.Fatal(err)
	}
	if lt := attribute(p); lt.total() != int64(len(cases))*10e6 || p.SampleCount() != int64(len(cases)) {
		t.Errorf("layers sum to %d ns over %d samples", lt.total(), p.SampleCount())
	}
}

// TestEndToEndOf pins how a run's timed passes become its end-to-end
// metrics: samples pooled across passes, the fastest access sample per
// group, the median build per system, both times scaled by the nominal
// clock over the fastest decile of the clock samples, and the median heap.
// The scale itself is reported too.
func TestEndToEndOf(t *testing.T) {
	a := passResult{
		Metrics: map[string]float64{"live_heap_mb": 10},
		Access:  map[string][]float64{"x": {400, 300}, "y": {900}},
		Builds:  map[string][]float64{"x": {0.3, 0.1, 0.2}},
		Clock:   []float64{4, 5},
	}
	b := passResult{
		Metrics: map[string]float64{"live_heap_mb": 12},
		Access:  map[string][]float64{"x": {200}, "y": {800}},
		Builds:  map[string][]float64{"x": {0.4}},
		Clock:   []float64{6},
	}
	scale := clockNominalNS / 4
	want := map[string]float64{
		"access_ns_min":    scale * 400, // geomean(200, 800)
		"setup_s":          scale * 0.25,
		"live_heap_mb":     11,
		"pass.clock_scale": scale,
	}
	got := endToEndOf([]passResult{a, b})
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// TestQuantilesMatchPython checks against values Python's statistics
// module gives for the same inputs.
func TestQuantilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(v))
	}
	if got := quantile(v, 9, 10); math.Abs(got-9.9) > 1e-9 {
		t.Errorf("p90 %v, want 9.9", got)
	}
	if p10, p75 := nearestRank(v, 0.1), nearestRank(v, 0.75); p10 != 1 || p75 != 8 {
		t.Errorf("nearest-rank p10 %v p75 %v, want 1 8", p10, p75)
	}
	if got := spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values %v", got)
	}
}
