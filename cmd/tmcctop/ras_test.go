package main

import (
	"bytes"
	"strings"
	"testing"

	"tmcc/internal/obs"
)

func rasSnap() obs.Snapshot {
	return snap(func(r *obs.Registry) {
		r.Counter("mc.tmcc.ras.retired").Add(2)
		r.Counter("mc.tmcc.ras.strikes").Add(9)
		r.Counter("mc.tmcc.ras.breaker.opens").Add(3)
		r.Counter("mc.tmcc.ras.breaker.closes").Add(2)
		r.Counter("mc.tmcc.ras.scrub.pages").Add(500)
		r.Counter("mc.tmcc.ras.scrub.detections").Add(4)
		r.Counter("mc.tmcc.ras.degradedWrites").Add(7)
		r.Gauge("mc.tmcc.ras.pages").Set(1000)
		r.Counter("mc.os-inspired.ras.retired").Add(0)
		r.Counter("mc.tmcc.reads").Add(10) // non-ras mc path must not parse as a line
	})
}

// TestRASStatusLines pins the per-kind status line: retired count,
// breaker state reconstructed from the transition counters, and scrub
// coverage against the pages gauge; a snapshot table leads with them.
func TestRASStatusLines(t *testing.T) {
	lines := rasStatus(rasSnap())
	if len(lines) != 2 {
		t.Fatalf("lines = %v, want one per kind", lines)
	}
	// Sorted by kind: os-inspired first, then tmcc.
	if !strings.HasPrefix(lines[0], "ras os-inspired:") || !strings.HasPrefix(lines[1], "ras tmcc:") {
		t.Fatalf("unexpected labels: %v", lines)
	}
	for _, want := range []string{
		"retired=2", "strikes=9", "breaker=OPEN", "opens=3 closes=2",
		"scrub=50.0%", "detected=4", "degradedWrites=7",
	} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("tmcc line missing %q: %s", want, lines[1])
		}
	}
	if !strings.Contains(lines[0], "breaker=closed") {
		t.Errorf("balanced transitions should read closed: %s", lines[0])
	}

	var buf bytes.Buffer
	renderSnapshot(&buf, rasSnap())
	if out := buf.String(); !strings.HasPrefix(out, lines[0]+"\n"+lines[1]+"\n\nPATH") {
		t.Errorf("snapshot table does not lead with the status lines:\n%s", out)
	}

	// No RAS instruments -> no lines (the section is simply absent).
	if l := rasStatus(snap(func(r *obs.Registry) { r.Counter("mc.tmcc.reads").Add(1) })); l != nil {
		t.Errorf("non-RAS snapshot produced lines: %v", l)
	}
}
