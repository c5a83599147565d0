// Package timeline is the fixture twin of the real windowed recorder:
// obs-sink-purity flags NewRecorder calls under internal/ outside obs.
package timeline

// Recorder is the windowed time-series recorder.
type Recorder struct{ window int64 }

// NewRecorder builds a recorder with the given window.
func NewRecorder(window int64) *Recorder { return &Recorder{window: window} }

// WindowStart is a harmless helper the rule must not flag.
func WindowStart(t, window int64) int64 { return t - t%window }
