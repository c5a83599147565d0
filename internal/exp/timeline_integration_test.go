package exp

import (
	"bytes"
	"testing"

	"tmcc/internal/config"
	"tmcc/internal/exp/engine"
	"tmcc/internal/obs"
	"tmcc/internal/obs/attr"
	"tmcc/internal/obs/timeline"
)

// TestTimelineDeterministicAcrossWorkerCounts is the windowed analogue of
// the engine's -j byte-identity guarantee: an experiment observed with a
// timeline recorder must render the identical CSV at any worker count,
// and the window deltas must conserve against the lifetime sinks at each.
// Per-run private sinks make this hold by construction — the test pins it.
func TestTimelineDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns a quick experiment under two engines")
	}
	run, ok := Get("fig17")
	if !ok {
		t.Fatal("fig17 not registered")
	}
	// Prime the process-wide memoized size models first: their codec
	// counters are bumped once, at construction, into whichever run builds
	// them. Two fresh processes are both cold and agree; in one process
	// only the first engine would see those bumps, so warm both.
	withEngine(t, engine.New(1))
	if _, err := run(quickCfg()); err != nil {
		t.Fatal(err)
	}
	var serial []byte
	for _, workers := range []int{1, 4} {
		withEngine(t, engine.New(workers))
		ob := &obs.Observer{
			Reg: obs.NewRegistry(),
			At:  attr.NewRecorder(),
			TL:  timeline.NewRecorder(100 * config.Microsecond),
		}
		eng.SetHooks(engine.Hooks{Obs: ob})
		if _, err := run(quickCfg()); err != nil {
			t.Fatalf("fig17 with %d workers: %v", workers, err)
		}
		tl := ob.TL.Snapshot()
		if len(tl.Groups) == 0 {
			t.Fatalf("%d workers: empty timeline", workers)
		}
		if err := obs.VerifyTimeline(tl, ob.Reg.Snapshot(), ob.At.Snapshot()); err != nil {
			t.Fatalf("%d workers: conservation: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := tl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serial = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), serial) {
			t.Fatalf("timeline CSV with %d workers differs from serial (%d vs %d bytes)",
				workers, buf.Len(), len(serial))
		}
	}
	if len(serial) == 0 {
		t.Fatal("serial timeline CSV empty")
	}
}
