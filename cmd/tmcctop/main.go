// Command tmcctop renders the metrics snapshots `tmccsim -metrics` writes:
//
//	tmcctop snap.json             render a snapshot as a sorted table
//	tmcctop old.json new.json     table with a delta column (new - old)
//
// A snapshot carrying mc.<kind>.ras.* instruments (a run with tmccsim
// -ras) leads with one RAS status line per controller kind — retired
// pages, breaker state, scrub coverage; a snapshot without them renders
// the table alone.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"tmcc/internal/obs"
)

func main() {
	flag.Parse()

	switch flag.NArg() {
	case 1:
		s, err := readSnapshotFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		renderSnapshot(os.Stdout, s)
	case 2:
		old, err := readSnapshotFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := readSnapshotFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		renderDiff(os.Stdout, old, cur)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func readSnapshotFile(path string) (obs.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer f.Close()
	s, err := obs.ReadSnapshot(f)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// value renders a sample's headline number: counters and gauges show
// Value, histograms show count/sum/mean plus bucket-interpolated
// quantiles (the overflow bucket reports the last bound as a floor).
func value(s obs.Sample) string {
	if s.Kind == "histogram" {
		mean := 0.0
		if s.Count > 0 {
			mean = float64(s.Sum) / float64(s.Count)
		}
		out := fmt.Sprintf("count=%d sum=%d mean=%.1f", s.Count, s.Sum, mean)
		if s.Count > 0 && len(s.Bounds) > 0 {
			out += fmt.Sprintf(" p50=%.0f p95=%.0f p99=%.0f",
				s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
		}
		return out
	}
	return fmt.Sprintf("%d", s.Value)
}

// scalar is the number a diff subtracts: Value for counters and gauges,
// observation count for histograms.
func scalar(s obs.Sample) int64 {
	if s.Kind == "histogram" {
		return int64(s.Count)
	}
	return s.Value
}

// rasStatus summarizes the self-healing layer from the registry's
// mc.<kind>.ras.* instruments: one line per controller kind with the
// retired-frame count, the breaker state (reconstructed from the open and
// close transition counters), and the patrol's page coverage. Nil result
// when the snapshot holds no RAS instruments — the RAS layer was off.
func rasStatus(s obs.Snapshot) []string {
	byKind := map[string]map[string]int64{}
	for _, sm := range s.Samples {
		rest, ok := strings.CutPrefix(sm.Path, "mc.")
		if !ok {
			continue
		}
		kind, leaf, ok := strings.Cut(rest, ".ras.")
		if !ok {
			continue
		}
		m := byKind[kind]
		if m == nil {
			m = map[string]int64{}
			byKind[kind] = m
		}
		m[leaf] = sm.Value
	}
	if len(byKind) == 0 {
		return nil
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	lines := make([]string, 0, len(kinds))
	for _, k := range kinds {
		m := byKind[k]
		state := "closed"
		if m["breaker.opens"] > m["breaker.closes"] {
			state = "OPEN"
		}
		coverage := 0.0
		if pages := m["pages"]; pages > 0 {
			coverage = 100 * float64(m["scrub.pages"]) / float64(pages)
			if coverage > 100 {
				coverage = 100 // patrol lapped the table
			}
		}
		lines = append(lines, fmt.Sprintf(
			"ras %s: retired=%d strikes=%d breaker=%s (opens=%d closes=%d) scrub=%.1f%% (detected=%d) degradedWrites=%d",
			k, m["retired"], m["strikes"], state,
			m["breaker.opens"], m["breaker.closes"],
			coverage, m["scrub.detections"], m["degradedWrites"]))
	}
	return lines
}

// renderSnapshot prints the samples as a path-sorted table, led by the
// RAS status lines when the snapshot carries them.
func renderSnapshot(w io.Writer, s obs.Snapshot) {
	if lines := rasStatus(s); len(lines) > 0 {
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
		fmt.Fprintln(w)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PATH\tKIND\tVALUE")
	for _, sm := range s.Samples {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", sm.Path, sm.Kind, value(sm))
	}
	tw.Flush()
}

// renderDiff prints the union of both snapshots' paths with a delta column
// (new minus old; histograms diff their observation counts). Paths present
// on only one side still render, with the missing side blank.
func renderDiff(w io.Writer, old, cur obs.Snapshot) {
	oldBy := make(map[string]obs.Sample, len(old.Samples))
	for _, sm := range old.Samples {
		oldBy[sm.Path] = sm
	}
	curBy := make(map[string]obs.Sample, len(cur.Samples))
	paths := make([]string, 0, len(cur.Samples))
	for _, sm := range cur.Samples {
		curBy[sm.Path] = sm
		paths = append(paths, sm.Path)
	}
	for _, sm := range old.Samples {
		if _, ok := curBy[sm.Path]; !ok {
			paths = append(paths, sm.Path)
		}
	}
	sort.Strings(paths)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PATH\tKIND\tOLD\tNEW\tDELTA")
	for _, p := range paths {
		o, hasOld := oldBy[p]
		c, hasCur := curBy[p]
		switch {
		case hasOld && hasCur:
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+d\n", p, c.Kind, value(o), value(c), scalar(c)-scalar(o))
		case hasCur:
			fmt.Fprintf(tw, "%s\t%s\t\t%s\t%+d\n", p, c.Kind, value(c), scalar(c))
		default:
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t%+d\n", p, o.Kind, value(o), -scalar(o))
		}
	}
	tw.Flush()
}
