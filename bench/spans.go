package main

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own calls into the
// simulator. Parent 0 is the root; times are relative to the pass start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps a pass's spans in memory until the pass ends. The engine's
// progress hook adds job spans from worker goroutines, hence the lock.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished interval and returns its id.
func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, name, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
	return id
}

// reserve allocates an id for a span whose end is not known yet, so its
// children can name it as their parent; finish fills it in.
func (l *spanLog) reserve(parent int, name string) int {
	now := time.Now()
	return l.add(parent, name, now, now)
}

func (l *spanLog) finish(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNS = time.Since(l.t0).Nanoseconds()
}

// do runs f inside a span and under pprof labels kv (key, value pairs), so
// the CPU profile of a traced pass can be split on the same boundaries the
// spans record. It returns f's duration.
func (l *spanLog) do(ctx context.Context, parent int, name string, kv []string, f func(ctx context.Context, id int)) time.Duration {
	id := l.reserve(parent, name)
	start := time.Now()
	pprof.Do(ctx, pprof.Labels(kv...), func(ctx context.Context) { f(ctx, id) })
	d := time.Since(start)
	l.finish(id)
	return d
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}
