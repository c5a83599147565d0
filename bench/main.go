// Command bench is the repository benchmark. It drives the simulator as a
// library, the way cmd/tmccsim does, times those calls from outside, checks
// every output against committed golden digests, and prints each metric of
// BENCHMARK.json by name with its unit.
//
// Every pass runs in a fresh child process, so the process-wide memo
// tables start cold as they do for a user; the parent only sequences the
// passes, one at a time.
//
// Usage, from the repository root (bench/run.sh builds the binary first):
//
//	bash bench/run.sh                                 one pass of each workload
//	bash bench/run.sh -workload tmcc-steady -seconds 28 -trace 1
//	bash bench/run.sh -repeat 5                       medians and quartiles
//	bash bench/run.sh -update-golden -seed 7          regenerate digests
//
// The last line of standard output is the result of the last workload: a
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// childTimeout stops a pass that hangs; a full pass takes well under 30 s.
const childTimeout = 150 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs all four")
		seed     = flag.Int64("seed", 42, "seed the workload's inputs derive from")
		seconds  = flag.Int("seconds", 0, "repeat passes while they fit in this many seconds; 0 runs one pass")
		trace    = flag.Int("trace", 0, "1 adds a CPU-profiled pass per workload and reports the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "where the profiled pass writes its pprof, spans and layers files")
		repeat   = flag.Int("repeat", 0, "run N passes per workload, alternating the workload order, and report medians and quartiles")
		update   = flag.Bool("update-golden", false, "rewrite the golden digests for -seed in bench/golden")
		child    = flag.Bool("child", false, "run one pass in this process and print its result as JSON (the parent's protocol)")
		check    = flag.Bool("check", false, "with -child, run the pass at the small check size")
	)
	flag.Parse()
	err := func() error {
		if flag.NArg() > 0 {
			return fmt.Errorf("unexpected arguments %q", flag.Args())
		}
		if *trace != 0 && *trace != 1 {
			return fmt.Errorf("-trace %d: want 0 or 1", *trace)
		}
		if *seconds < 0 || *repeat < 0 {
			return errors.New("-seconds and -repeat must not be negative")
		}
		ws := workloads
		if *name != "" {
			w, ok := workloadByName(*name)
			if !ok {
				return fmt.Errorf("unknown workload %q", *name)
			}
			ws = []workload{w}
		}
		switch {
		case *child:
			return runChild(ws, *seed, *check, *update, *trace == 1, *traceDir)
		case *update:
			return updateAll(ws, *seed)
		case *repeat > 0:
			return repeatAll(os.Stdout, ws, *seed, *repeat)
		}
		for _, w := range ws {
			if err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild runs one pass in this process and prints its result.
func runChild(ws []workload, seed int64, check, update, trace bool, traceDir string) error {
	if len(ws) != 1 {
		return errors.New("-child needs -workload")
	}
	sz, dir := fullSize, ""
	if check {
		sz = checkSize
	}
	if trace {
		dir = traceDir
	}
	res, err := runPass(ws[0], seed, sz, !update, dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one pass of w in a fresh child process with GOMAXPROCS set to
// the CPU count; flags are added to the child's command line.
func spawn(w workload, seed int64, flags ...string) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	args := append([]string{"-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10)}, flags...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", w.Name, err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return passResult{}, fmt.Errorf("%s pass: reading its result: %w", w.Name, err)
	}
	return res, nil
}

// run is what one measurement of a workload produced: the check pass,
// which pins outputs to the golden digests whatever the seed, the timed
// passes, and the profiled pass when tracing.
type run struct {
	check  passResult
	passes []passResult
	traced *passResult
}

// all lists every pass of the run.
func (r run) all() []passResult {
	all := append([]passResult{r.check}, r.passes...)
	if r.traced != nil {
		all = append(all, *r.traced)
	}
	return all
}

// minPasses is the fewest timed passes a run with a budget makes. A
// paper-quick group gets one sample per pass, and the fastest of one
// sample seeks no floor.
const minPasses = 2

// measure runs the check pass, then timed passes while the next one is
// expected to fit in budget (at least minPasses; one with no budget), then
// the profiled pass if trace, and prints the result line.
func measure(w workload, seed int64, budget time.Duration, trace bool, traceDir string) error {
	start := time.Now()
	var r run
	var err error
	if r.check, err = spawn(w, checkSeed, "-check"); err != nil {
		return err
	}
	var longest time.Duration
	for {
		t0 := time.Now()
		res, err := spawn(w, seed)
		if err != nil {
			return err
		}
		r.passes = append(r.passes, res)
		longest = max(longest, time.Since(t0))
		next := longest
		if trace {
			next *= 2 // one more timed pass, then the traced one
		}
		if budget == 0 || len(r.passes) >= minPasses && time.Since(start)+next > budget {
			break
		}
	}
	if trace {
		res, err := spawn(w, seed, "-trace", "1", "-trace-dir", traceDir)
		if err != nil {
			return err
		}
		// Walls at the reference clock, so that host drift between the
		// passes does not read as overhead.
		wall := func(m map[string]float64) float64 { return m["pass.wall_s"] * m["pass.clock_scale"] }
		var timed []float64
		for _, p := range r.passes {
			timed = append(timed, wall(p.Metrics))
		}
		res.Metrics["trace_overhead_frac"] = wall(res.Metrics)/median(timed) - 1
		r.traced = &res
	}
	printSummary(os.Stderr, w, r)
	return printResult(os.Stdout, r)
}

// endToEndOf computes a run's end-to-end metrics, and the clock scale they
// use, from its timed passes. The access, setup and clock samples are
// pooled across passes, and the times are scaled to the reference clock.
// The live heap, which repeats to within a few kB, is the median over
// passes.
func endToEndOf(passes []passResult) map[string]float64 {
	var access, builds []map[string][]float64
	var clock []float64
	for _, p := range passes {
		access = append(access, p.Access)
		builds = append(builds, p.Builds)
		clock = append(clock, p.Clock...)
	}
	scale := clockScale(clock)
	return map[string]float64{
		"access_ns_min":    scale * accessMin(pool(access...)),
		"setup_s":          scale * setupSeconds(pool(builds...)),
		"live_heap_mb":     median(values(passes, "live_heap_mb")),
		"pass.clock_scale": scale,
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// printResult writes the result line: the run's end-to-end metrics, or
// with a traced pass its per-layer metrics. Ops of every pass count.
func printResult(w io.Writer, r run) error {
	line := resultLine{Metrics: map[string]valueUnit{}}
	for _, p := range r.all() {
		line.Attempted += p.Ops
		line.Failed += len(p.Failures)
	}
	line.Correct = line.Failed == 0
	if r.traced == nil {
		e2e := endToEndOf(r.passes)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = valueUnit{e2e[m.Name], m.Unit}
		}
	} else {
		for _, m := range perLayer() {
			line.Metrics[m.Name] = valueUnit{r.traced.Metrics[m.Name], m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSummary is the human-readable account of a run: every metric it
// produced with its unit, and every failed op with the reason.
func printSummary(w io.Writer, wl workload, r run) {
	e2e := endToEndOf(r.passes)
	fmt.Fprintf(w, "== %s: seed %d, %d timed pass(es), golden %s; check pass golden %s; clock scale %.4f\n",
		wl.Name, r.passes[0].Seed, len(r.passes), r.passes[0].Golden, r.check.Golden, e2e["pass.clock_scale"])
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	src := r.passes[0]
	if r.traced != nil {
		src = *r.traced
	}
	for _, m := range perLayer() {
		if v := src.Metrics[m.Name]; v != 0 {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for _, p := range r.all() {
		for _, op := range sortedKeys(p.Failures) {
			fmt.Fprintf(w, "  FAILED %s (seed %d): %s\n", op, p.Seed, p.Failures[op])
		}
	}
}

// repeatAll runs n passes of each workload, reversing the workload order
// on every other round so that no workload always runs first, and reports
// each metric's median and quartiles over the passes. An end-to-end metric
// whose quartile spread exceeds its bound is flagged, and so is any exact
// count that differs between passes.
func repeatAll(w io.Writer, ws []workload, seed int64, n int) error {
	res := map[string][]passResult{}
	for r := 0; r < n; r++ {
		for i := range ws {
			wl := ws[i]
			if r%2 == 1 {
				wl = ws[len(ws)-1-i]
			}
			p, err := spawn(wl, seed)
			if err != nil {
				return err
			}
			res[wl.Name] = append(res[wl.Name], p)
		}
	}
	exact := map[string]bool{}
	for _, m := range countMetrics {
		exact[m.Name] = true
	}
	for _, wl := range ws {
		passes := res[wl.Name]
		ops, failed := 0, 0
		for _, p := range passes {
			ops += p.Ops
			failed += len(p.Failures)
		}
		fmt.Fprintf(w, "== %s: %d passes, seed %d, golden %s, %d/%d ops failed\n", wl.Name, n, seed, passes[0].Golden, failed, ops)
		fmt.Fprintf(w, "%-28s %-11s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, m := range endToEnd {
			v := values(passes, m.Name)
			q1, q3 := quartiles(v)
			flag := ""
			if spread(v) > m.Bound {
				flag = "  SPREAD > BOUND"
			}
			fmt.Fprintf(w, "%-28s %-11s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n", m.Name, m.Unit, median(v), q1, q3, 100*spread(v), 100*m.Bound, flag)
		}
		for _, m := range perLayer() {
			v := values(passes, m.Name)
			if median(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			flag := ""
			if exact[m.Name] && q1 != q3 {
				flag = "  NOT EXACT"
			}
			fmt.Fprintf(w, "%-28s %-11s %12.4f %12.4f %12.4f%s\n", m.Name, m.Unit, median(v), q1, q3, flag)
		}
	}
	return nil
}

func values(passes []passResult, name string) []float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = p.Metrics[name]
	}
	return v
}

// updateAll regenerates the golden digests of seed at full and check size
// from one pass each per workload. A pass with a failed op updates
// nothing.
func updateAll(ws []workload, seed int64) error {
	for _, w := range ws {
		for _, check := range []bool{false, true} {
			flags, sz := []string{"-update-golden"}, fullSize
			if check {
				flags, sz = append(flags, "-check"), checkSize
			}
			p, err := spawn(w, seed, flags...)
			if err != nil {
				return err
			}
			key := goldenKey(w.Name, sz)
			if len(p.Failures) > 0 {
				for _, op := range sortedKeys(p.Failures) {
					fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", op, p.Failures[op])
				}
				return fmt.Errorf("%s: %d op(s) failed; golden digests not updated", key, len(p.Failures))
			}
			if err := updateGolden(seed, key, p.Digests); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s: %d golden digests written for seed %d\n", key, len(p.Digests), seed)
		}
	}
	return nil
}
