package exp

import (
	"bytes"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
	"tmcc/internal/obs/timeline"
)

// checkObservationDeterministic is the observation surfaces' analogue of
// the engine's -j byte-identity guarantee: fig17 observed with the armed
// recorders (a timeline, a heatmap, or both) must render identical CSVs
// at any worker count, and each must conserve against the lifetime sinks
// at each. Run views accumulate run-privately and fold commutatively, and
// the snapshots sort groups, windows and regions — the check pins that
// chain. Nothing is primed: the process-wide size models are built once,
// by whichever engine runs first, and their build counters stay out of
// the timeline, so the engines start from different memo states and must
// still agree.
func checkObservationDeterministic(t *testing.T, armTL, armHeat bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("reruns a quick experiment under two engines")
	}
	run, ok := Get("fig17")
	if !ok {
		t.Fatal("fig17 not registered")
	}
	var serialTL, serialHM []byte
	for _, workers := range []int{1, 4} {
		withEngine(t, engine.New(workers))
		ob := &obs.Observer{Reg: obs.NewRegistry(), At: attr.NewRecorder()}
		if armTL {
			ob.TL = timeline.NewRecorder(100 * config.Microsecond)
		}
		if armHeat {
			ob.Heat = heatmap.NewRecorder(0, 0)
		}
		eng.SetHooks(engine.Hooks{Obs: ob})
		if _, err := run(quickCfg()); err != nil {
			t.Fatalf("fig17 with %d workers: %v", workers, err)
		}
		if err := ob.Verify(); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		var tlBuf, hmBuf bytes.Buffer
		if armTL {
			tl := ob.TL.Snapshot()
			if len(tl.Groups) == 0 {
				t.Fatalf("%d workers: empty timeline", workers)
			}
			if err := tl.WriteCSV(&tlBuf); err != nil {
				t.Fatal(err)
			}
		}
		if armHeat {
			hm := ob.Heat.Snapshot()
			if len(hm.Groups) == 0 {
				t.Fatalf("%d workers: empty heatmap", workers)
			}
			if err := hm.WriteCSV(&hmBuf); err != nil {
				t.Fatal(err)
			}
		}
		if workers == 1 {
			serialTL, serialHM = tlBuf.Bytes(), hmBuf.Bytes()
			continue
		}
		if !bytes.Equal(tlBuf.Bytes(), serialTL) {
			t.Errorf("timeline CSV with %d workers differs from serial (%d vs %d bytes)",
				workers, tlBuf.Len(), len(serialTL))
		}
		if !bytes.Equal(hmBuf.Bytes(), serialHM) {
			t.Errorf("heatmap CSV with %d workers differs from serial (%d vs %d bytes)",
				workers, hmBuf.Len(), len(serialHM))
		}
	}
}

// TestTimelineDeterministicAcrossWorkerCounts arms only the timeline
// recorder: the run views carry no heat side.
func TestTimelineDeterministicAcrossWorkerCounts(t *testing.T) {
	checkObservationDeterministic(t, true, false)
}

// TestHeatmapDeterministicAcrossWorkerCounts arms only the heatmap
// recorder: the run views carry no timeline sinks.
func TestHeatmapDeterministicAcrossWorkerCounts(t *testing.T) {
	checkObservationDeterministic(t, false, true)
}

// TestObservationDeterministicAcrossWorkerCounts arms both recorders, so
// each run view windows and maps the same accesses.
func TestObservationDeterministicAcrossWorkerCounts(t *testing.T) {
	checkObservationDeterministic(t, true, true)
}
