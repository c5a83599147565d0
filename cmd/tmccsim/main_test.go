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

	"tmcc/internal/config"
	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
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

// TestStatsOutput checks the -stats summary shape and that the progress
// hook fires on an executed run. The engine is private: the shared one's
// memo would serve a repeat (-count=2) without running it.
func TestStatsOutput(t *testing.T) {
	var progress atomic.Int64
	eng := engine.New(1)
	eng.SetProgress(func(engine.Run) { progress.Add(1) })
	if err := runSingle(io.Discard, eng, "blackscholes", "tmcc", 0, exp.Config{Seed: 42, Quick: true}); err != nil {
		t.Fatalf("runSingle(blackscholes, tmcc): %v", err)
	}
	if progress.Load() != 1 {
		t.Errorf("progress hook fired %d times for one executed run", progress.Load())
	}

	var sb strings.Builder
	printStats(&sb, eng.Stats(), 4, 3*time.Second, nil)
	got := sb.String()
	for _, want := range []string{"4 workers", "1 runs executed", "cache hits", "wall clock"} {
		if !strings.Contains(got, want) {
			t.Errorf("stats output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "panics") {
		t.Errorf("clean run reports panics:\n%s", got)
	}
	sb.Reset()
	printStats(&sb, engine.Stats{Runs: 2, Panics: 1, Failed: 1}, 1, time.Second, nil)
	if got := sb.String(); !strings.Contains(got, "engine: 1 worker panics recovered, 1 runs failed\n") {
		t.Errorf("failure line missing or malformed:\n%s", got)
	}

	// A budget too small by design is reported apart from failures, in
	// the text and in the JSON line.
	if err := runSingle(io.Discard, eng, "canneal", "tmcc", 400, exp.Config{Seed: 42, Quick: true}); err == nil {
		t.Fatal("runSingle(canneal, tmcc, budget 400) succeeded")
	}
	st := eng.Stats()
	if st.Failed != 1 || st.Infeasible != 1 {
		t.Fatalf("after one infeasible run Failed=%d Infeasible=%d, want 1 and 1", st.Failed, st.Infeasible)
	}
	sb.Reset()
	printStats(&sb, st, 1, time.Second, nil)
	got = sb.String()
	if !strings.Contains(got, "engine: 1 runs infeasible") || strings.Contains(got, "runs failed") {
		t.Errorf("infeasible run not reported apart from failures:\n%s", got)
	}
	if line := statsJSON(st, time.Second, nil); !strings.Contains(line, `"infeasible":1`) || strings.Contains(line, `"failed"`) {
		t.Errorf("stats line = %s, want infeasible 1 and no failed", line)
	}
	sb.Reset()
	printStats(&sb, engine.Stats{Runs: 3, Failed: 3, Infeasible: 1}, 1, time.Second, nil)
	if got := sb.String(); !strings.Contains(got, "0 worker panics recovered, 2 runs failed\n") || !strings.Contains(got, "1 runs infeasible") {
		t.Errorf("mixed failures misreported:\n%s", got)
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

// observedRun drives one canneal/TMCC point through a private engine
// armed with ob: the shared engine's memo would serve a repeat
// (-count=2) from cache and record nothing.
func observedRun(t *testing.T, ob *obs.Observer, seed int64) {
	t.Helper()
	eng := engine.New(1)
	eng.SetHooks(engine.Hooks{Obs: ob})
	if err := runSingle(io.Discard, eng, "canneal", "tmcc", 0, exp.Config{Seed: seed, Quick: true}); err != nil {
		t.Fatalf("runSingle(canneal, tmcc): %v", err)
	}
}

// TestBreakdownAndFlameFiles drives one attributed run and checks the
// breakdown CSV, flame file and -breakdown table the export writes.
func TestBreakdownAndFlameFiles(t *testing.T) {
	ob := obs.New()
	observedRun(t, ob, 44)

	dir := t.TempDir()
	bpath := filepath.Join(dir, "b.csv")
	fpath := filepath.Join(dir, "f.flame")
	var stderr strings.Builder
	if err := export(&stderr, ob, outputs{breakdownCSV: bpath, flame: fpath, breakdown: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "canneal") {
		t.Errorf("-breakdown table missing the run's group:\n%s", stderr.String())
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

// TestMetricsAndTraceFiles drives one observed run and checks the metrics
// and trace files the export writes, end to end.
func TestMetricsAndTraceFiles(t *testing.T) {
	ob := obs.New()
	observedRun(t, ob, 43)

	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.json")
	tpath := filepath.Join(dir, "t.trace")
	if err := export(io.Discard, ob, outputs{metrics: mpath, trace: tpath}); err != nil {
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
	if c, ok := s.Get("engine.runs"); !ok || c.Value != 1 {
		t.Errorf("engine.runs = %+v, want 1", c)
	}
	if _, ok := s.Get("obs.trace.dropped"); !ok {
		t.Error("export did not sync the derived obs.trace.* gauges")
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

// TestExportVerifiesBeforeWriting: an observer whose heatmap disagrees
// with the lifetime registry fails the export with the audit's error, and
// no requested file is created — not even the ones that need no heatmap.
func TestExportVerifiesBeforeWriting(t *testing.T) {
	ob := obs.New()
	ob.TL = timeline.NewRecorder(100 * config.Microsecond)
	ob.Heat = heatmap.NewRecorder(0, 0)
	observedRun(t, ob, 46)
	if err := ob.Verify(); err != nil {
		t.Fatalf("healthy run fails verification: %v", err)
	}
	ob.Reg.Counter("mc.tmcc.ml2.reads").Inc() // the lifetime count drifts past the heatmap's

	dir := t.TempDir()
	out := outputs{
		metrics: filepath.Join(dir, "m.json"), trace: filepath.Join(dir, "t.trace"),
		timeline: filepath.Join(dir, "tl.csv"), heatmap: filepath.Join(dir, "hm.csv"),
		breakdownCSV: filepath.Join(dir, "b.csv"), flame: filepath.Join(dir, "f.flame"),
		breakdown: true,
	}
	var stderr strings.Builder
	err := export(&stderr, ob, out)
	if err == nil || !strings.Contains(err.Error(), "mc.tmcc.ml2.reads") {
		t.Fatalf("export error = %v, want the heatmap audit naming mc.tmcc.ml2.reads", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("failed audit left %d artifact(s) behind: %v", len(ents), ents)
	}
	if stderr.Len() != 0 {
		t.Errorf("failed audit rendered to stderr:\n%s", stderr.String())
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
