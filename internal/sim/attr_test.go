package sim

import (
	"testing"

	"tmcc/internal/mc"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/ras"
)

// runAttributed executes one observed run and returns its metrics plus
// the recorded attribution group snapshot.
func runAttributed(t *testing.T, kind mc.Kind) (Metrics, attr.GroupSnapshot) {
	t.Helper()
	ob := obs.New()
	opt := Options{
		Benchmark:       "canneal",
		Kind:            kind,
		WarmupAccesses:  20000,
		MeasureAccesses: 20000,
		Seed:            7,
	}
	r, err := NewRunnerFull(opt, ob, nil, ras.Config{})
	if err != nil {
		t.Fatalf("%v: NewRunnerFull: %v", kind, err)
	}
	m := mustRun(t, r)
	s := ob.At.Snapshot()
	if err := s.Conserved(); err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	if len(s.Groups) != 1 {
		t.Fatalf("%v: got %d attribution groups, want 1", kind, len(s.Groups))
	}
	g := s.Groups[0]
	if g.Benchmark != "canneal" || g.Kind != kind.String() {
		t.Fatalf("group labeled %s/%s, want canneal/%s", g.Benchmark, g.Kind, kind)
	}
	return m, g
}

func classOf(t *testing.T, g attr.GroupSnapshot, name string) attr.ClassSnapshot {
	t.Helper()
	for _, cs := range g.Classes {
		if cs.Class == name {
			return cs
		}
	}
	t.Fatalf("no %q class in group %s/%s (have %+v)", name, g.Benchmark, g.Kind, g.Classes)
	return attr.ClassSnapshot{}
}

// TestAttributionConservesPerKind is the end-to-end acceptance test: a
// full observed run of every MC design yields a conserved breakdown
// whose demand count matches the measured window's memory accesses, and
// whose component mix matches each design's mechanism — serialized CTE
// time for Compresso, overlap credit for TMCC, neither for the
// uncompressed baseline.
func TestAttributionConservesPerKind(t *testing.T) {
	for _, kind := range []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC} {
		m, g := runAttributed(t, kind)
		demand := classOf(t, g, "demand")
		if demand.Count != m.MemAccesses {
			t.Errorf("%v: demand records = %d, measured MemAccesses = %d", kind, demand.Count, m.MemAccesses)
		}
		// Mean demand latency must cover at least the L1 hit time and the
		// summed walk component must mirror the walks the window measured.
		if demand.TotalPS <= 0 {
			t.Errorf("%v: demand totalPS = %d", kind, demand.TotalPS)
		}
		if m.Walks > 0 && demand.CompPS[attr.CWalk] == 0 {
			t.Errorf("%v: %d walks measured but no walk time attributed", kind, m.Walks)
		}

		switch kind {
		case mc.Uncompressed:
			for _, c := range []attr.Component{attr.CCTESerial, attr.CCTEParallel, attr.COverlap, attr.CVerifyRedo, attr.CDataML2} {
				if demand.CompPS[c] != 0 {
					t.Errorf("uncompressed: %s = %d, want 0", c, demand.CompPS[c])
				}
			}
		case mc.Compresso:
			if m.MC.CTEMisses > 0 && demand.CompPS[attr.CCTESerial] == 0 {
				t.Error("compresso: CTE misses measured but no serialized CTE time attributed")
			}
			if demand.CompPS[attr.COverlap] != 0 {
				t.Error("compresso: earned overlap credit without speculation")
			}
		case mc.TMCC:
			if m.MC.ParallelOK > 0 && demand.CompPS[attr.COverlap] == 0 {
				t.Error("tmcc: parallel fetches verified OK but no overlap credit attributed")
			}
			if demand.CompPS[attr.COverlap] > demand.CompPS[attr.CCTEParallel] {
				t.Errorf("tmcc: overlap credit %d exceeds the parallel CTE time %d it discounts",
					demand.CompPS[attr.COverlap], demand.CompPS[attr.CCTEParallel])
			}
		}

		// PTB fetches ride inside demand walks: the class must exist
		// whenever walks happened, and is never summed with demand.
		if m.WalkRefs > 0 {
			ptb := classOf(t, g, "ptb")
			if ptb.Count < m.WalkRefs {
				t.Errorf("%v: ptb records = %d, below measured WalkRefs = %d", kind, ptb.Count, m.WalkRefs)
			}
		}
		if m.Writebacks > 0 {
			wb := classOf(t, g, "writeback")
			if wb.Count != m.Writebacks {
				t.Errorf("%v: writeback records = %d, measured = %d", kind, wb.Count, m.Writebacks)
			}
		}
	}
}

// TestAttributionConsistentWithLatencyMetrics cross-checks the tentpole
// against the pre-existing counters: the summed MC+NoC latency of every
// LLC miss — demand and walker PTB fetches alike, i.e. each class's
// total minus its walk and cache-hit time — equals
// Metrics.L3MissLatencySum exactly.
func TestAttributionConsistentWithLatencyMetrics(t *testing.T) {
	m, g := runAttributed(t, mc.TMCC)
	var missPS int64
	for _, name := range []string{"demand", "ptb"} {
		cs := classOf(t, g, name)
		missPS += cs.AttributedSum() - cs.CompPS[attr.CWalk] - cs.CompPS[attr.CCacheHit]
	}
	if missPS != int64(m.L3MissLatencySum) {
		t.Errorf("attributed LLC-miss latency = %d ps, Metrics.L3MissLatencySum = %d ps",
			missPS, int64(m.L3MissLatencySum))
	}
}

// TestAttributionOffLeavesNoTrace pins the flags-off path: a plain run
// (and an observed run whose observer has no recorder) records nothing
// and allocates no attribution state.
func TestAttributionOffLeavesNoTrace(t *testing.T) {
	opt := Options{
		Benchmark:       "canneal",
		Kind:            mc.TMCC,
		WarmupAccesses:  2000,
		MeasureAccesses: 2000,
		Seed:            7,
	}
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, r)
	if r.ag != nil {
		t.Error("plain run carries an attribution group")
	}

	ob := &obs.Observer{Reg: obs.NewRegistry(), Tr: obs.NewTracer(0)}
	ro, err := NewRunnerFull(opt, ob, nil, ras.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, ro)
	if ro.ag != nil {
		t.Error("recorder-less observer produced an attribution group")
	}
	if ro.mcc.Attr() != nil {
		t.Error("recorder-less observer allocated the MC scratch")
	}
}
