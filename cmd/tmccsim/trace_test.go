package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/exp"
	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/timeline"
)

// validateTrace parses a Chrome trace_event JSON stream and checks the
// invariants tmccsim's tracer guarantees: object form, at least one
// event, every event either a complete ("X") span with non-negative
// timestamps or a timeline counter sample ("C") carrying a value. On
// success it prints a one-line summary with the category census and the
// ring utilization (retained next to dropped, so "is the ring big
// enough" is answerable from the validation line alone).
func validateTrace(w io.Writer, r io.Reader) error {
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args *struct {
				Value uint64 `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("not valid trace JSON: %w", err)
	}
	if d, ok := f.OtherData["droppedSpans"]; ok && d != "" && d != "0" {
		fmt.Fprintf(w, "warning: trace ring overwrote %s spans (oldest lost); raise the tracer capacity to keep them\n", d)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("trace holds no events")
	}
	cats := map[string]int{}
	spans, counters := 0, 0
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 {
				return fmt.Errorf("event %d (%s): negative dur %v", i, e.Name, e.Dur)
			}
		case "C":
			counters++
			if e.Args == nil {
				return fmt.Errorf("event %d (%s): counter event without args.value", i, e.Name)
			}
		default:
			return fmt.Errorf("event %d (%s): phase %q, want complete span X or counter C", i, e.Name, e.Ph)
		}
		if e.TS < 0 {
			return fmt.Errorf("event %d (%s): negative ts %v", i, e.Name, e.TS)
		}
		if e.Cat == "" || e.Name == "" {
			return fmt.Errorf("event %d: empty cat or name", i)
		}
		cats[e.Cat]++
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "trace OK: %d events (%d spans, %d counters), %d categories:", len(f.TraceEvents), spans, counters, len(names))
	for _, c := range names {
		fmt.Fprintf(w, " %s=%d", c, cats[c])
	}
	if retained, ok := f.OtherData["retainedSpans"]; ok {
		dropped := f.OtherData["droppedSpans"]
		if dropped == "" {
			dropped = "0"
		}
		fmt.Fprintf(w, " (ring: %s retained, %s dropped)", retained, dropped)
	}
	fmt.Fprintln(w)
	return nil
}

func TestValidateTraceAcceptsTracerOutput(t *testing.T) {
	tr := obs.NewTracer(8)
	tr.Emit(obs.CatWalk, "walk1d", 0, 10, 20)
	tr.Emit(obs.CatML2, "decompress", obs.TIDMC, 15, 40)
	var trace bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := validateTrace(&out, &trace); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	got := out.String()
	for _, want := range []string{"trace OK", "2 events", "2 categories", "walk=1", "ml2.decompress=1"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q: %s", want, got)
		}
	}
}

func TestValidateTraceWarnsOnDroppedSpans(t *testing.T) {
	tr := obs.NewTracer(2)
	for i := 0; i < 5; i++ {
		t0 := config.Time(i) * 10
		tr.Emit(obs.CatWalk, "w", 0, t0, t0+5)
	}
	var trace bytes.Buffer
	if err := tr.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := validateTrace(&out, &trace); err != nil {
		t.Fatalf("lossy-but-valid trace rejected: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "warning: trace ring overwrote 3 spans") {
		t.Errorf("no dropped-span warning:\n%s", got)
	}
	if !strings.Contains(got, "trace OK") {
		t.Errorf("warning suppressed the summary:\n%s", got)
	}
}

func TestValidateTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":    "{",
		"no events":   `{"traceEvents":[]}`,
		"wrong phase": `{"traceEvents":[{"name":"x","cat":"c","ph":"B","ts":1,"dur":1}]}`,
		"negative ts": `{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":-1,"dur":1}]}`,
		"empty cat":   `{"traceEvents":[{"name":"x","cat":"","ph":"X","ts":1,"dur":1}]}`,
	}
	for name, in := range cases {
		var out bytes.Buffer
		if err := validateTrace(&out, strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWriteTraceCarriesSpansAndCounters drives one engine run with the
// tracer and a 100µs timeline armed, writes the file through writeTrace,
// and requires validateTrace to accept it with both complete spans and
// timeline counter events present.
func TestWriteTraceCarriesSpansAndCounters(t *testing.T) {
	// A private engine: the shared one's memo would serve a repeat
	// (-count=2) from cache and record nothing.
	eng := engine.New(1)
	ob := obs.New()
	ob.TL = timeline.NewRecorder(100 * config.Microsecond)
	eng.SetHooks(engine.Hooks{Obs: ob})

	if err := runSingle(io.Discard, eng, "canneal", "tmcc", 0, exp.Config{Seed: 45, Quick: true}); err != nil {
		t.Fatalf("runSingle(canneal, tmcc): %v", err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := writeTrace(path, ob); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	if err := validateTrace(&out, f); err != nil {
		t.Fatalf("writeTrace output rejected: %v", err)
	}
	var events, spans, counters int
	if _, err := fmt.Sscanf(out.String(), "trace OK: %d events (%d spans, %d counters)", &events, &spans, &counters); err != nil {
		t.Fatalf("summary line unparseable: %v\n%s", err, out.String())
	}
	if spans == 0 || counters == 0 {
		t.Errorf("want at least one X span and one C counter event, got %d spans and %d counters:\n%s",
			spans, counters, out.String())
	}
}
