// Package heatmap is the fixture twin of the real spatial recorder:
// obs-sink-purity flags NewRecorder calls under internal/ outside obs.
package heatmap

// Recorder is the spatial heat recorder.
type Recorder struct{ pages, window int64 }

// NewRecorder builds a recorder over pages with the given window.
func NewRecorder(pages, window int64) *Recorder { return &Recorder{pages: pages, window: window} }

// SizeBounds is a harmless helper the rule must not flag.
func SizeBounds() []int64 { return nil }
