package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// passResult is what one pass reports, from the child process that ran it
// to the parent.
type passResult struct {
	Seed int64 `json:"seed"`
	// Golden is "verified" when the digests were compared with the
	// committed ones, "unverified" when none exist for this seed and size,
	// and "skipped" while they are being regenerated.
	Golden   string               `json:"golden"`
	Ops      int                  `json:"ops"`
	Failures map[string]string    `json:"failures,omitempty"` // failed op -> reason
	Digests  map[string]string    `json:"digests"`
	Metrics  map[string]float64   `json:"metrics"`
	Access   map[string][]float64 `json:"access"` // see pass.access
	Builds   map[string][]float64 `json:"builds"` // see pass.builds
	Clock    []float64            `json:"clock"`  // see pass.clock
}

// runPass runs one pass of w in this process and, if verify, compares its
// digests with the golden ones. With traceDir set, the pass runs under the
// CPU profiler and writes its profile, spans and layer attribution there.
func runPass(w workload, seed int64, sz size, verify bool, traceDir string) (passResult, error) {
	p := &pass{
		ctx:      context.Background(),
		seed:     seed,
		size:     sz,
		spans:    newSpanLog(),
		digests:  map[string]string{},
		failures: map[string]string{},
		metrics:  map[string]float64{},
		access:   map[string][]float64{},
		builds:   map[string][]float64{},
	}
	var prof bytes.Buffer
	if traceDir != "" {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return passResult{}, fmt.Errorf("start profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	wall := p.spans.do(p.ctx, 0, "workload "+w.Name, []string{"workload", w.Name}, func(ctx context.Context, id int) {
		p.ctx, p.root = ctx, id
		w.run(p)
	})
	cpu := cpuTime() - cpu0
	if traceDir != "" {
		pprof.StopCPUProfile()
	}
	p.metrics["pass.wall_s"] = wall.Seconds()
	p.metrics["pass.cpu_s"] = cpu.Seconds()
	p.metrics["sim.access_ns_p50"] = groupStat(p.access, median)
	p.metrics["sim.access_ns_p75"] = groupStat(p.access, func(v []float64) float64 { return nearestRank(v, 0.75) })

	res := passResult{
		Seed: seed, Ops: len(p.ops), Failures: p.failures, Digests: p.digests, Metrics: p.metrics,
		Access: p.access, Builds: p.builds, Clock: p.clock,
	}
	maps.Copy(p.metrics, endToEndOf([]passResult{res}))
	res.Golden = "skipped"
	if verify {
		res.Golden = verifyGolden(goldenKey(w.Name, sz), seed, p.ops, p.digests, p.failures)
	}
	if traceDir != "" {
		if err := writeTrace(traceDir, w.Name, p, prof.Bytes(), cpu); err != nil {
			return passResult{}, err
		}
	}
	return res, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layersFile is the layers.json of a traced pass.
type layersFile struct {
	Workload     string     `json:"workload"`
	ProfileCPUNS int64      `json:"profile_cpu_ns"`
	RusageCPUNS  int64      `json:"rusage_cpu_ns"`
	Samples      int64      `json:"samples"`
	SimAccesses  uint64     `json:"sim_accesses"`
	LayerSumNS   int64      `json:"layer_sum_ns"`
	Layers       []layerRow `json:"layers"`
}

// writeTrace writes a traced pass's three files, prints its layer table,
// and adds the profile-derived per-layer metrics to the pass.
func writeTrace(dir, name string, p *pass, prof []byte, cpu time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".pprof"), prof, 0o644); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, name+".spans.json"), p.spans.snapshot()); err != nil {
		return err
	}
	pr, err := decodeProfile(prof)
	if err != nil {
		return err
	}
	lt := attribute(pr)
	lf := layersFile{
		Workload:     name,
		ProfileCPUNS: pr.TotalCPUNanos(),
		RusageCPUNS:  cpu.Nanoseconds(),
		Samples:      pr.SampleCount(),
		SimAccesses:  p.simAccesses,
		LayerSumNS:   lt.total(),
		Layers:       layerRows(lt),
	}
	if lf.LayerSumNS != lf.ProfileCPUNS {
		return fmt.Errorf("%s: layer times sum to %d ns, profile holds %d ns", name, lf.LayerSumNS, lf.ProfileCPUNS)
	}
	if err := writeJSON(filepath.Join(dir, name+".layers.json"), lf); err != nil {
		return err
	}
	ratio := float64(lf.ProfileCPUNS) / float64(lf.RusageCPUNS)
	fmt.Fprintf(os.Stderr, "%s traced: profile %.2f s CPU vs getrusage %.2f s (ratio %.3f), %d samples, layers sum to the profile total\n",
		name, float64(lf.ProfileCPUNS)/1e9, cpu.Seconds(), ratio, lf.Samples)
	writeLayerTable(os.Stderr, lf.Layers, p.simAccesses)
	layerMetrics(lt, p.simAccesses, p.metrics)
	p.metrics["profile.samples"] = float64(lf.Samples)
	p.metrics["profile.cpu_ratio"] = ratio
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
