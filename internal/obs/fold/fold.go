// Package fold is the commutative-fold core under the timeline and
// heatmap recorders: per (benchmark, kind) group, one accumulator per
// ordered key (window start, region index) plus a group total, behind one
// mutex. Folds happen only at window edges and run ends, never per
// access, and are commutative sums, so the state is independent of run
// interleaving; Walk visits groups and keys in sorted order, so renderings
// built on it are byte-identical at any worker count. The zero Recorder is
// ready to use; a nil *Recorder ignores every operation.
package fold

import (
	"cmp"
	"slices"
	"sync"
)

// Group identifies one (benchmark, kind) series.
type Group struct {
	Benchmark string
	Kind      string
}

// Entry is one keyed accumulator of a group, as Walk hands it out.
type Entry[K cmp.Ordered, A any] struct {
	Key K
	Acc *A
}

type group[K cmp.Ordered, A any] struct {
	byKey map[K]*A
	total A
}

// Recorder folds accumulators of type A, keyed by K within each (benchmark,
// kind) group.
type Recorder[K cmp.Ordered, A any] struct {
	mu     sync.Mutex
	groups map[Group]*group[K, A]
}

// group returns g's state, creating it when missing. Callers hold r.mu.
func (r *Recorder[K, A]) group(g Group) *group[K, A] {
	if r.groups == nil {
		r.groups = map[Group]*group[K, A]{}
	}
	gs, ok := r.groups[g]
	if !ok {
		gs = &group[K, A]{byKey: map[K]*A{}}
		r.groups[g] = gs
	}
	return gs
}

// Fold applies f under the lock to the accumulator at key in group g,
// which starts as A's zero value. f must be a pure fold: it must not block
// or call back into r. Nil-safe.
func (r *Recorder[K, A]) Fold(g Group, key K, f func(*A)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	gs := r.group(g)
	acc, ok := gs.byKey[key]
	if !ok {
		acc = new(A)
		gs.byKey[key] = acc
	}
	f(acc)
}

// FoldTotal applies f, under the same terms as Fold, to group g's total
// accumulator. Nil-safe.
func (r *Recorder[K, A]) FoldTotal(g Group, f func(*A)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.group(g).total)
}

// Walk calls visit under the lock for every group, sorted by (benchmark,
// kind), with the group's total and its keyed accumulators ascending by
// key. visit must copy what it keeps (the accumulators stay live) and must
// not call back into r. Nil-safe.
func (r *Recorder[K, A]) Walk(visit func(g Group, total *A, entries []Entry[K, A])) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	groups := make([]Group, 0, len(r.groups))
	for g := range r.groups {
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b Group) int {
		return cmp.Or(cmp.Compare(a.Benchmark, b.Benchmark), cmp.Compare(a.Kind, b.Kind))
	})
	for _, g := range groups {
		gs := r.groups[g]
		entries := make([]Entry[K, A], 0, len(gs.byKey))
		for k, acc := range gs.byKey {
			entries = append(entries, Entry[K, A]{k, acc})
		}
		slices.SortFunc(entries, func(a, b Entry[K, A]) int { return cmp.Compare(a.Key, b.Key) })
		visit(g, &gs.total, entries)
	}
}
