package main

import (
	"bytes"
	"strings"
	"testing"

	"tmcc/internal/obs"
)

func snap(build func(r *obs.Registry)) obs.Snapshot {
	r := obs.NewRegistry()
	build(r)
	return r.Snapshot()
}

func TestRenderSnapshot(t *testing.T) {
	s := snap(func(r *obs.Registry) {
		r.Counter("mc.tmcc.ctecache.hit").Add(12)
		r.Gauge("sim.placement.ml1Pages").Set(-3)
		h := r.Histogram("engine.runMS", []int64{10, 100})
		h.Observe(5)
		h.Observe(50)
	})
	var buf bytes.Buffer
	renderSnapshot(&buf, s)
	out := buf.String()
	for _, want := range []string{
		"PATH", "mc.tmcc.ctecache.hit", "counter", "12",
		"sim.placement.ml1Pages", "gauge", "-3",
		"engine.runMS", "histogram", "count=2 sum=55 mean=27.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot table missing %q:\n%s", want, out)
		}
	}
	// Sorted by path: engine before mc before sim.
	if strings.Index(out, "engine.runMS") > strings.Index(out, "mc.tmcc") {
		t.Errorf("table not path-sorted:\n%s", out)
	}
}

func TestRenderDiff(t *testing.T) {
	old := snap(func(r *obs.Registry) {
		r.Counter("a").Add(10)
		r.Counter("gone").Add(1)
		r.Histogram("h", []int64{10}).Observe(3)
	})
	cur := snap(func(r *obs.Registry) {
		r.Counter("a").Add(25)
		r.Counter("fresh").Add(7)
		h := r.Histogram("h", []int64{10})
		h.Observe(3)
		h.Observe(4)
		h.Observe(5)
	})
	var buf bytes.Buffer
	renderDiff(&buf, old, cur)
	out := buf.String()
	for _, want := range []string{"+15", "+7", "-1", "+2", "gone", "fresh"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}

// TestRenderSnapshotQuantiles pins the p50/p95/p99 suffix histograms gain:
// 100 observations of 50 in a {100,200} bucket layout interpolate to
// p50=50, p95=95, p99=99 (linear within the first bucket).
func TestRenderSnapshotQuantiles(t *testing.T) {
	s := snap(func(r *obs.Registry) {
		h := r.Histogram("walk.latency", []int64{100, 200})
		for i := 0; i < 100; i++ {
			h.Observe(50)
		}
	})
	var buf bytes.Buffer
	renderSnapshot(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "p50=50 p95=95 p99=99") {
		t.Errorf("histogram row missing interpolated quantiles:\n%s", out)
	}
}
