package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// goldenPath is the benchmark's committed digest file. The test reads it
// in place, so the benchmark and the tests share one golden source.
const goldenPath = "../../bench/golden/seed-42.json"

// TestQuickSuiteMatchesGolden pins every paper table at Quick size to a
// committed output rather than to a second run of the same build: the
// SHA-256 of each experiment's CSV, as `tmccsim -exp <id> -quick -format
// csv` prints it, must equal the golden file's "paper-quick" entry, which
// the benchmark (bench/) verifies too. The suite runs once with every
// observation surface armed — registry, tracer, attribution, a 100µs
// timeline and the heatmap — so the same pass proves observation leaves
// every table byte-identical and that each conservation audit holds over
// the whole suite; the quickRelations orderings are checked on the same
// tables. When a change is meant to move a table, regenerate the
// digests with `bash bench/run.sh -update-golden -seed 42` (bench/README.md).
func TestQuickSuiteMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]map[string]string
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	want, ok := file["paper-quick"]
	if !ok {
		t.Fatalf("%s has no paper-quick entry", goldenPath)
	}
	var extra []string
	for id := range want {
		if _, ok := Get(id); !ok {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		t.Errorf("%s: golden digest for an unregistered experiment", id)
	}

	withEngine(t, engine.New(4))
	ob := &obs.Observer{
		Reg:  obs.NewRegistry(),
		Tr:   obs.NewTracer(0),
		At:   attr.NewRecorder(),
		TL:   timeline.NewRecorder(100 * config.Microsecond),
		Heat: heatmap.NewRecorder(heatmap.DefaultRegionPages, 0),
	}
	eng.SetHooks(engine.Hooks{Obs: ob})
	for _, id := range IDs() {
		run, _ := Get(id)
		tab, err := run(quickCfg())
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		sum := sha256.Sum256([]byte(tab.CSV() + "\n"))
		got := hex.EncodeToString(sum[:])
		switch golden, ok := want[id]; {
		case !ok:
			t.Errorf("%s: no golden digest (CSV digest %.12s)", id, got)
		case got != golden:
			t.Errorf("%s: CSV digest %.12s, golden %.12s", id, got, golden)
		}
		if rel, ok := quickRelations[id]; ok {
			if err := rel(tab); err != nil {
				t.Errorf("%s: metamorphic relation: %v", id, err)
			}
		}
	}

	reg, at := ob.Reg.Snapshot(), ob.At.Snapshot()
	if err := at.Conserved(); err != nil {
		t.Errorf("attr conservation: %v", err)
	}
	tl := ob.TL.Snapshot()
	if err := obs.VerifyTimeline(tl, reg, at); err != nil {
		t.Errorf("timeline: %v", err)
	}
	if err := obs.VerifyHeatmap(ob.Heat.Snapshot(), reg, at); err != nil {
		t.Errorf("heatmap: %v", err)
	}
	attrWindows := 0
	for _, g := range tl.Groups {
		for _, w := range g.Windows {
			for _, ad := range w.Attr {
				attrWindows++
				if !ad.Conserved() {
					t.Errorf("timeline %s/%s window %d: class %v does not conserve", g.Benchmark, g.Kind, w.StartPS, ad.Class)
				}
			}
		}
	}
	if attrWindows == 0 {
		t.Error("timeline recorded no attr windows")
	}
	var trace bytes.Buffer
	if err := ob.Tr.WriteChromeTraceTimeline(&trace, tl); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace.Bytes()) {
		t.Errorf("Chrome trace with timeline counters is not valid JSON (%d bytes)", trace.Len())
	}
}
