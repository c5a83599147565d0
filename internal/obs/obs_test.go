package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/obs/attr"
)

func TestNewObserverCarriesAllSinks(t *testing.T) {
	o := New()
	if o.Reg == nil || o.Tr == nil || o.At == nil {
		t.Fatalf("New() left a sink nil: %+v", o)
	}
	if g := o.AttrGroup("b", "k"); g == nil {
		t.Fatal("AttrGroup returned nil on a live observer")
	}
	var nilO *Observer
	if nilO.AttrGroup("b", "k") != nil {
		t.Fatal("nil observer handed out a live attr group")
	}
	nilO.SyncDerived() // must not panic
}

func TestSyncDerivedExportsTracerDrops(t *testing.T) {
	o := &Observer{Reg: NewRegistry(), Tr: NewTracer(4)}
	for i := 0; i < 10; i++ {
		start := config.Time(i) * 10
		o.Span(CatWalk, "w", 0, start, start+1)
	}
	o.SyncDerived()
	s, ok := o.Reg.Snapshot().Get("obs.trace.dropped")
	if !ok {
		t.Fatal("obs.trace.dropped missing after SyncDerived")
	}
	if s.Kind != "gauge" || s.Value != 6 {
		t.Fatalf("obs.trace.dropped = %+v, want gauge value 6", s)
	}
	// Metrics-only observers (nil tracer) must not invent the gauge.
	mo := &Observer{Reg: NewRegistry()}
	mo.SyncDerived()
	if _, ok := mo.Reg.Snapshot().Get("obs.trace.dropped"); ok {
		t.Fatal("tracerless observer exported a drop gauge")
	}
}

func TestWriteCollapsedConservesStacks(t *testing.T) {
	rec := attr.NewRecorder()
	var a attr.Access
	a.Class = attr.ClassDemand
	a.Add(attr.CWalk, 100)
	a.Add(attr.CDataML1, 50)
	a.Add(attr.CCTEParallel, 40)
	a.Add(attr.COverlap, 30) // 10 ps of the CTE fetch stayed exposed
	a.Add(attr.CNoC, 10)
	a.Total = 100 + 50 + 10 + 10
	rec.Group("canneal", "tmcc").Record(&a)

	var buf bytes.Buffer
	if err := WriteCollapsed(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var sum int64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Fatalf("malformed collapsed line %q", line)
		}
		frames := strings.Split(parts[0], ";")
		if len(frames) != 4 || frames[0] != "canneal" || frames[1] != "tmcc" || frames[2] != "demand" {
			t.Fatalf("bad stack %q", parts[0])
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			t.Fatalf("bad weight %q: %v", parts[1], err)
		}
		if v <= 0 {
			t.Fatalf("non-positive weight in %q", line)
		}
		sum += v
	}
	if sum != int64(a.Total) {
		t.Fatalf("stack weights sum to %d, want %d (conservation)", sum, a.Total)
	}
	if strings.Contains(out, "overlapCredit") {
		t.Error("collapsed output leaked the negative overlapCredit frame")
	}
	if !strings.Contains(out, ";cteParallel 10\n") {
		t.Errorf("cteParallel not emitted at its exposed duration:\n%s", out)
	}
}
