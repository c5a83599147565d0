package recency

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTouchAndEvict(t *testing.T) {
	l := New()
	l.Touch(1)
	l.Touch(2)
	l.Touch(3) // hottest
	if ppn, ok := l.Coldest(); !ok || ppn != 1 {
		t.Fatalf("coldest = %d %v, want 1", ppn, ok)
	}
	l.Touch(1) // 1 becomes hottest; 2 is now coldest
	if ppn, _ := l.EvictColdest(); ppn != 2 {
		t.Fatalf("evicted %d, want 2", ppn)
	}
	if l.Len() != 2 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestRemoveMiddle(t *testing.T) {
	l := New()
	for p := uint64(1); p <= 5; p++ {
		l.Touch(p)
	}
	l.Remove(3)
	if l.Contains(3) || l.Len() != 4 {
		t.Fatal("remove failed")
	}
	// Drain and check order: 1,2,4,5 cold to hot.
	want := []uint64{1, 2, 4, 5}
	for _, w := range want {
		if got, _ := l.EvictColdest(); got != w {
			t.Fatalf("drain got %d, want %d", got, w)
		}
	}
	if _, ok := l.EvictColdest(); ok {
		t.Error("drain from empty succeeded")
	}
}

func TestInsertCold(t *testing.T) {
	l := New()
	l.Touch(10)
	l.Touch(20)
	l.InsertCold(5)
	if ppn, _ := l.Coldest(); ppn != 5 {
		t.Fatalf("coldest = %d, want 5", ppn)
	}
	// InsertCold on existing is a no-op.
	l.InsertCold(20)
	if l.Len() != 3 {
		t.Errorf("len = %d after duplicate InsertCold", l.Len())
	}
}

func TestEmptyOps(t *testing.T) {
	l := New()
	l.Remove(1) // no-op
	if _, ok := l.Coldest(); ok {
		t.Error("coldest on empty")
	}
	l.InsertCold(7)
	if ppn, _ := l.Coldest(); ppn != 7 {
		t.Error("InsertCold into empty failed")
	}
}

func TestOverhead(t *testing.T) {
	l := New()
	for p := uint64(0); p < 100; p++ {
		l.Touch(p)
	}
	if l.OverheadBytes() != 1600 {
		t.Errorf("overhead = %d", l.OverheadBytes())
	}
}

// Property: after any operation sequence the list length matches the set of
// tracked pages and drain order has no duplicates.
func TestQuickConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		ref := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			p := uint64(rng.Intn(50))
			switch rng.Intn(4) {
			case 0, 1:
				l.Touch(p)
				ref[p] = true
			case 2:
				l.Remove(p)
				delete(ref, p)
			case 3:
				l.InsertCold(p)
				ref[p] = true
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		seen := map[uint64]bool{}
		for {
			p, ok := l.EvictColdest()
			if !ok {
				break
			}
			if seen[p] || !ref[p] {
				return false
			}
			seen[p] = true
		}
		return len(seen) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMatchesContainerList replays random Touch, Remove, InsertCold and
// EvictColdest ops against a container/list model (front = hottest) and
// after every op compares the length, membership, the coldest page and
// the whole hot-to-cold order, read by walking the link records.
func TestMatchesContainerList(t *testing.T) {
	for _, sized := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		const pages = 40
		l := New()
		if sized {
			l = NewSized(pages)
		}
		model, elem := list.New(), map[uint64]*list.Element{}
		for i := 0; i < 20000; i++ {
			p := uint64(rng.Intn(pages))
			op := rng.Intn(5)
			switch op {
			case 0, 1:
				l.Touch(p)
				if e := elem[p]; e != nil {
					model.MoveToFront(e)
				} else {
					elem[p] = model.PushFront(p)
				}
			case 2:
				l.Remove(p)
				if e := elem[p]; e != nil {
					model.Remove(e)
					delete(elem, p)
				}
			case 3:
				l.InsertCold(p)
				if elem[p] == nil {
					elem[p] = model.PushBack(p)
				}
			case 4:
				got, ok := l.EvictColdest()
				if back := model.Back(); back == nil {
					if ok {
						t.Fatalf("op %d: EvictColdest on empty list = %d", i, got)
					}
				} else if want := back.Value.(uint64); !ok || got != want {
					t.Fatalf("op %d: EvictColdest = %d, %v; model %d", i, got, ok, want)
				} else {
					model.Remove(back)
					delete(elem, want)
				}
			}
			if l.Len() != model.Len() {
				t.Fatalf("op %d (%d on %d): Len = %d, model %d", i, op, p, l.Len(), model.Len())
			}
			for q := uint64(0); q < pages+2; q++ {
				if l.Contains(q) != (elem[q] != nil) {
					t.Fatalf("op %d (%d on %d): Contains(%d) = %v", i, op, p, q, l.Contains(q))
				}
			}
			if c, ok := l.Coldest(); ok != (model.Len() > 0) || ok && c != model.Back().Value.(uint64) {
				t.Fatalf("op %d (%d on %d): Coldest = %d, %v", i, op, p, c, ok)
			}
			var order, want []uint64
			for q, k := l.head, 0; q != 0 && k < l.n; k++ {
				order = append(order, uint64(q-1))
				q = l.links[q-1].next
			}
			for e := model.Front(); e != nil; e = e.Next() {
				want = append(want, e.Value.(uint64))
			}
			if !slices.Equal(order, want) {
				t.Fatalf("op %d (%d on %d): hot-to-cold order %v, model %v", i, op, p, order, want)
			}
		}
	}
}
