package exp

import (
	"bytes"
	"testing"

	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/heatmap"
)

// TestHeatmapDeterministicAcrossWorkerCounts is the spatial analogue of
// the timeline's -j byte-identity guarantee: an experiment observed with
// a heatmap recorder must render the identical CSV at any worker count,
// and the per-region sums must conserve against the lifetime sinks at
// each. Views accumulate run-privately and fold commutatively, and the
// snapshot sorts groups and regions — the test pins that chain.
func TestHeatmapDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns a quick experiment under two engines")
	}
	run, ok := Get("fig17")
	if !ok {
		t.Fatal("fig17 not registered")
	}
	// Prime the process-wide memoized size models first (see the timeline
	// analogue): their construction-time counter bumps land in whichever
	// run builds them, so warm both engines from the same state.
	withEngine(t, engine.New(1))
	if _, err := run(quickCfg()); err != nil {
		t.Fatal(err)
	}
	var serial []byte
	for _, workers := range []int{1, 4} {
		withEngine(t, engine.New(workers))
		ob := &obs.Observer{
			Reg:  obs.NewRegistry(),
			At:   attr.NewRecorder(),
			Heat: heatmap.NewRecorder(0, 0),
		}
		eng.SetHooks(engine.Hooks{Obs: ob})
		if _, err := run(quickCfg()); err != nil {
			t.Fatalf("fig17 with %d workers: %v", workers, err)
		}
		hm := ob.Heat.Snapshot()
		if len(hm.Groups) == 0 {
			t.Fatalf("%d workers: empty heatmap", workers)
		}
		if err := obs.VerifyHeatmap(hm, ob.Reg.Snapshot(), ob.At.Snapshot()); err != nil {
			t.Fatalf("%d workers: conservation: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := hm.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serial = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), serial) {
			t.Fatalf("heatmap CSV with %d workers differs from serial (%d vs %d bytes)",
				workers, buf.Len(), len(serial))
		}
	}
	if len(serial) == 0 {
		t.Fatal("serial heatmap CSV empty")
	}
}
