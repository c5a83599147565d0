package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
)

// TestRunSmoke drives the cheapest experiment (fig6, the page-table scan)
// through every output format.
func TestRunSmoke(t *testing.T) {
	cfg := exp.Config{Seed: 42, Quick: true}
	for _, format := range []string{"text", "markdown", "csv"} {
		var sb strings.Builder
		if err := run(&sb, "fig6", cfg, format); err != nil {
			t.Fatalf("run(fig6, %s): %v", format, err)
		}
		if sb.Len() == 0 {
			t.Errorf("run(fig6, %s) wrote nothing", format)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig999", exp.Config{}, "text"); err == nil {
		t.Fatal("unknown experiment id did not error")
	}
}

// TestStatsOutput checks the -stats summary shape and that the engine saw
// the fig6 work driven above (run order between tests is fixed within a
// package, but keep the assertion order-independent: just require counters
// to render and progress to fire on a fresh engine run).
func TestStatsOutput(t *testing.T) {
	// The hook fires from every worker goroutine.
	var progress atomic.Int64
	eng := exp.Engine()
	eng.SetProgress(func(engine.Run) { progress.Add(1) })
	defer eng.SetProgress(nil)

	cfg := exp.Config{Seed: 42, Quick: true}
	var out strings.Builder
	if err := run(&out, "ext-2dwalk", cfg, "csv"); err != nil {
		t.Fatalf("run(ext-2dwalk): %v", err)
	}
	if progress.Load() == 0 {
		t.Error("progress hook never fired")
	}

	var sb strings.Builder
	printStats(&sb, eng.Stats(), 4, 3*time.Second, nil)
	got := sb.String()
	for _, want := range []string{"4 workers", "runs executed", "cache hits", "wall clock"} {
		if !strings.Contains(got, want) {
			t.Errorf("stats output missing %q:\n%s", want, got)
		}
	}
}

// TestStatsJSON pins the machine-readable summary line scripts parse.
func TestStatsJSON(t *testing.T) {
	st := engine.Stats{Runs: 7, Hits: 3, Coalesced: 2}
	line := statsJSON(st, 1500*time.Millisecond, nil)
	var got struct {
		Executed     uint64  `json:"executed"`
		Deduplicated uint64  `json:"deduplicated"`
		WallSeconds  float64 `json:"wallSeconds"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("stats line is not JSON: %v\n%s", err, line)
	}
	if got.Executed != 7 || got.Deduplicated != 5 || got.WallSeconds != 1.5 {
		t.Fatalf("stats line = %+v, want executed=7 deduplicated=5 wallSeconds=1.5", got)
	}
	if strings.Contains(line, "droppedSpans") || strings.Contains(line, "attrAccesses") {
		t.Fatalf("observer-less stats line carries observer fields: %s", line)
	}
}

// TestStatsJSONWithObserver pins the dropped-span and attribution totals
// the -stats line gains when an observer rode along.
func TestStatsJSONWithObserver(t *testing.T) {
	ob := obs.New()
	for i := 0; i < obs.DefaultTraceSpans+3; i++ {
		ob.Span(obs.CatWalk, "w", 0, 0, 1)
	}
	a := attr.Access{Class: attr.ClassDemand, Total: 40}
	a.Add(attr.CDataML1, 40)
	ob.AttrGroup("canneal", "tmcc").Record(&a)
	ob.AttrGroup("canneal", "tmcc").Record(&a)

	line := statsJSON(engine.Stats{Runs: 1}, time.Second, ob)
	var got struct {
		DroppedSpans uint64 `json:"droppedSpans"`
		AttrAccesses uint64 `json:"attrAccesses"`
		AttrTotalPS  int64  `json:"attrTotalPS"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("stats line is not JSON: %v\n%s", err, line)
	}
	if got.DroppedSpans != 3 {
		t.Errorf("droppedSpans = %d, want 3", got.DroppedSpans)
	}
	if got.AttrAccesses != 2 || got.AttrTotalPS != 80 {
		t.Errorf("attr totals = %d/%d, want 2/80", got.AttrAccesses, got.AttrTotalPS)
	}
}

// TestBreakdownFlameAndWatchFiles drives one attributed experiment through
// the real engine and checks the breakdown CSV and flame writers.
func TestBreakdownFlameAndWatchFiles(t *testing.T) {
	eng := exp.Engine()
	ob := obs.New()
	eng.SetHooks(engine.Hooks{Obs: ob})
	defer eng.SetHooks(engine.Hooks{})

	if err := run(io.Discard, "fig5", exp.Config{Seed: 44, Quick: true}, "csv"); err != nil {
		t.Fatalf("run(fig5): %v", err)
	}

	snap := ob.At.Snapshot()
	if err := snap.Conserved(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Groups) == 0 {
		t.Fatal("attributed run recorded no groups")
	}

	dir := t.TempDir()
	bpath := filepath.Join(dir, "b.csv")
	fpath := filepath.Join(dir, "f.flame")
	if err := writeBreakdownCSV(bpath, snap); err != nil {
		t.Fatal(err)
	}
	if err := writeFlame(fpath, snap); err != nil {
		t.Fatal(err)
	}

	bb, err := os.ReadFile(bpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(bb)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "benchmark,kind,class,accesses,totalPS") {
		t.Fatalf("breakdown CSV malformed:\n%s", bb)
	}

	fb, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) == 0 || !strings.Contains(string(fb), ";demand;") {
		t.Fatalf("flame file malformed:\n%s", fb)
	}
}

// TestMetricsAndTraceFiles drives one observed experiment through the real
// engine and checks the two artifact writers end to end.
func TestMetricsAndTraceFiles(t *testing.T) {
	eng := exp.Engine()
	ob := obs.New()
	eng.SetHooks(engine.Hooks{Obs: ob})
	defer eng.SetHooks(engine.Hooks{})

	if err := run(io.Discard, "ext-2dwalk", exp.Config{Seed: 43, Quick: true}, "csv"); err != nil {
		t.Fatalf("run(ext-2dwalk): %v", err)
	}

	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.json")
	tpath := filepath.Join(dir, "t.trace")
	if err := writeMetrics(mpath, ob); err != nil {
		t.Fatal(err)
	}
	if err := writeTrace(tpath, ob); err != nil {
		t.Fatal(err)
	}

	mf, err := os.Open(mpath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	s, err := obs.ReadSnapshot(mf)
	if err != nil {
		t.Fatalf("metrics file does not round-trip: %v", err)
	}
	if len(s.Samples) == 0 {
		t.Fatal("metrics snapshot is empty")
	}
	if c, ok := s.Get("engine.runs"); !ok || c.Value == 0 {
		t.Errorf("engine.runs missing or zero: %+v", c)
	}

	tb, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace file holds no events")
	}
}

// TestCheckObsFlags pins the observation-flag rejections: a heatmap
// region with no power of two to round up to (it once hung
// heatmap.NewRecorder) and a non-positive timeline window (once silently
// replaced by 1ms).
func TestCheckObsFlags(t *testing.T) {
	for _, c := range []struct {
		region  uint64
		window  time.Duration
		wantErr string
	}{
		{512, time.Millisecond, ""},
		{1 << 63, 100 * time.Microsecond, ""},
		{1<<63 + 1, time.Millisecond, "-heatmap-region"},
		{512, 0, "-timeline-window"},
		{512, -time.Millisecond, "-timeline-window"},
	} {
		err := checkObsFlags(c.region, c.window)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("checkObsFlags(%d, %v) = %v, want nil", c.region, c.window, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("checkObsFlags(%d, %v) = %v, want an error naming %s", c.region, c.window, err, c.wantErr)
		}
	}
}
