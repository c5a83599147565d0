package main

import (
	"fmt"
	"io"
	"strings"
)

// Phases of a pass, decided per sample by the simulator call it sits under.
const (
	phaseBuild = iota // under sim.NewRunner*
	phaseSim          // under Runner.Run or Runner.Steps
	phaseOther        // codec sweeps, CSV rendering, engine bookkeeping, GC
	numPhases
)

// layerTimes is self CPU time in nanoseconds per layer and phase.
type layerTimes map[string]*[numPhases]int64

// total sums every layer and phase.
func (lt layerTimes) total() int64 {
	var t int64
	for _, ph := range lt {
		for _, ns := range ph {
			t += ns
		}
	}
	return t
}

var layerSet = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf maps a function name to its layer: tmcc/internal/<pkg> for a
// listed package, bench for this benchmark's own package (named main in
// the binary and tmcc/bench in its test binary), and "" for frames that
// belong to no layer (the standard library, the Go runtime, internal
// packages outside the list).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "tmcc/bench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "tmcc/internal/")
	if !ok {
		return ""
	}
	// Type arguments of a generic instantiation may themselves hold paths.
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i]
	}
	slash := strings.LastIndexByte(rest, '/') + 1
	dot := strings.IndexByte(rest[slash:], '.')
	if dot < 0 {
		return ""
	}
	if pkg := rest[:slash+dot]; layerSet[pkg] {
		return pkg
	}
	return ""
}

// phaseOf classifies a stack (leaf first) by the innermost simulator entry
// point on it.
func phaseOf(frames []string) int {
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "tmcc/internal/sim.NewRunner"):
			return phaseBuild
		case fn == "tmcc/internal/sim.(*Runner).Run", fn == "tmcc/internal/sim.(*Runner).Steps":
			return phaseSim
		}
	}
	return phaseOther
}

// attribute charges each sample's CPU time to the innermost frame that
// belongs to a layer, inlined frames included, or to runtime when no frame
// does. Every sample lands in exactly one (layer, phase) cell, so the cells
// sum to the profile total.
func attribute(p *profile) layerTimes {
	lt := layerTimes{}
	for _, l := range layers {
		lt[l] = new([numPhases]int64)
	}
	for _, s := range p.Samples {
		layer := "runtime"
		for _, fn := range s.Frames {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		lt[layer][phaseOf(s.Frames)] += p.CPUNanos(s)
	}
	return lt
}

// layerMetrics turns layer times into the per-layer host-time metrics;
// simAccesses is the number of accesses simulated inside Run/Steps.
func layerMetrics(lt layerTimes, simAccesses uint64, out map[string]float64) {
	for _, l := range layers {
		n := layerMetricName(l)
		ph := lt[l]
		out[n+".build_ms"] = float64(ph[phaseBuild]) / 1e6
		out[n+".other_ms"] = float64(ph[phaseOther]) / 1e6
		out[n+".sim_ns_per_access"] = 0
		if simAccesses > 0 {
			out[n+".sim_ns_per_access"] = float64(ph[phaseSim]) / float64(simAccesses)
		}
	}
}

// layerRow is one line of a layers.json file.
type layerRow struct {
	Layer   string  `json:"layer"`
	BuildNS int64   `json:"build_ns"`
	SimNS   int64   `json:"sim_ns"`
	OtherNS int64   `json:"other_ns"`
	TotalNS int64   `json:"total_ns"`
	Share   float64 `json:"share"`
}

func layerRows(lt layerTimes) []layerRow {
	total := lt.total()
	var rows []layerRow
	for _, l := range layers {
		ph := lt[l]
		r := layerRow{Layer: l, BuildNS: ph[phaseBuild], SimNS: ph[phaseSim], OtherNS: ph[phaseOther]}
		r.TotalNS = r.BuildNS + r.SimNS + r.OtherNS
		if total > 0 {
			r.Share = float64(r.TotalNS) / float64(total)
		}
		rows = append(rows, r)
	}
	return rows
}

// writeLayerTable prints the layers that took any time, in list order.
func writeLayerTable(w io.Writer, rows []layerRow, simAccesses uint64) {
	fmt.Fprintf(w, "%-14s %10s %10s %10s %12s %7s\n", "layer", "build_ms", "sim_ms", "other_ms", "sim_ns/acc", "share")
	for _, r := range rows {
		if r.TotalNS == 0 {
			continue
		}
		perAcc := 0.0
		if simAccesses > 0 {
			perAcc = float64(r.SimNS) / float64(simAccesses)
		}
		fmt.Fprintf(w, "%-14s %10.1f %10.1f %10.1f %12.2f %6.1f%%\n", r.Layer,
			float64(r.BuildNS)/1e6, float64(r.SimNS)/1e6, float64(r.OtherNS)/1e6, perAcc, 100*r.Share)
	}
}
