package fold

import (
	"reflect"
	"sync"
	"testing"
)

// sum is a minimal commutative accumulator.
type sum struct{ n, folds int }

type add struct {
	g   Group
	key int64
	n   int
}

var (
	canneal = Group{"canneal", "tmcc"}
	mcfC    = Group{"mcf", "compresso"}
	mcfT    = Group{"mcf", "tmcc"}
)

// adds spans groups, keys, repeated keys, and insertion orders that
// disagree with the sorted order.
var adds = []add{
	{mcfT, 5, 1},
	{canneal, 7, 2},
	{canneal, 0, 3},
	{mcfC, 0, 4},
	{canneal, 7, 10},
	{canneal, -3, 6},
}

type walked struct {
	g       Group
	total   sum
	keys    []int64
	entries []sum
}

func fill(r *Recorder[int64, sum], order []int) {
	for _, i := range order {
		a := adds[i]
		r.Fold(a.g, a.key, func(s *sum) { s.n += a.n; s.folds++ })
		r.FoldTotal(a.g, func(s *sum) { s.n += a.n; s.folds++ })
	}
}

func walk(r *Recorder[int64, sum]) []walked {
	var out []walked
	r.Walk(func(g Group, total *sum, entries []Entry[int64, sum]) {
		w := walked{g: g, total: *total}
		for _, e := range entries {
			w.keys = append(w.keys, e.Key)
			w.entries = append(w.entries, *e.Acc)
		}
		out = append(out, w)
	})
	return out
}

// TestFoldOrderIndependent: the same folds in any order — serial in three
// permutations, or racing from goroutines — walk identically, groups by
// (benchmark, kind) and keys ascending. This is the property that makes
// the timeline and heatmap byte-identical at any -j.
func TestFoldOrderIndependent(t *testing.T) {
	var fwd, rev, mixed, conc Recorder[int64, sum]
	fill(&fwd, []int{0, 1, 2, 3, 4, 5})
	fill(&rev, []int{5, 4, 3, 2, 1, 0})
	fill(&mixed, []int{3, 0, 5, 1, 4, 2})
	var wg sync.WaitGroup
	for i := range adds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fill(&conc, []int{i})
		}(i)
	}
	wg.Wait()

	want := []walked{
		{canneal, sum{21, 4}, []int64{-3, 0, 7}, []sum{{6, 1}, {3, 1}, {12, 2}}},
		{mcfC, sum{4, 1}, []int64{0}, []sum{{4, 1}}},
		{mcfT, sum{1, 1}, []int64{5}, []sum{{1, 1}}},
	}
	for name, r := range map[string]*Recorder[int64, sum]{"forward": &fwd, "reverse": &rev, "mixed": &mixed, "concurrent": &conc} {
		if got := walk(r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s fold order walked\n%+v\nwant\n%+v", name, got, want)
		}
	}
	// Walking is read-only: a second walk sees the same state.
	if a, b := walk(&fwd), walk(&fwd); !reflect.DeepEqual(a, b) {
		t.Errorf("repeated walks differ:\n%+v\n%+v", a, b)
	}
}

// TestNilRecorderInert: every operation on a nil recorder is a no-op, and
// the zero value walks nothing — the flags-off contract the recorders
// built on the core inherit.
func TestNilRecorderInert(t *testing.T) {
	var r *Recorder[int64, sum]
	called := false
	r.Fold(canneal, 1, func(*sum) { called = true })
	r.FoldTotal(canneal, func(*sum) { called = true })
	r.Walk(func(Group, *sum, []Entry[int64, sum]) { called = true })
	if called {
		t.Error("nil recorder invoked a callback")
	}
	var z Recorder[int64, sum]
	if got := walk(&z); len(got) != 0 {
		t.Errorf("zero recorder walked %+v", got)
	}
}
