package recency

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// owner is the PPN the tests place on frame f, distinct from f so a list
// that confused the two would fail.
func owner(f uint32) uint64 { return uint64(f)*7 + 1000 }

func TestTouchAndEvict(t *testing.T) {
	l := New(8)
	l.Touch(1, owner(1))
	l.Touch(2, owner(2))
	l.Touch(3, owner(3)) // hottest
	if f, ppn, ok := l.Coldest(); !ok || f != 1 || ppn != owner(1) {
		t.Fatalf("coldest = %d (ppn %d) %v, want frame 1 (ppn %d)", f, ppn, ok, owner(1))
	}
	l.Touch(1, owner(1)) // 1 becomes hottest; 2 is now coldest
	if f, ppn, _ := l.EvictColdest(); f != 2 || ppn != owner(2) {
		t.Fatalf("evicted frame %d (ppn %d), want 2 (ppn %d)", f, ppn, owner(2))
	}
	if l.Len() != 2 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestRemoveMiddle(t *testing.T) {
	l := New(8)
	for f := uint32(1); f <= 5; f++ {
		l.Touch(f, owner(f))
	}
	l.Remove(3)
	if l.Contains(3) || l.Len() != 4 {
		t.Fatal("remove failed")
	}
	if _, ok := l.Owner(3); ok {
		t.Fatal("removed frame still has an owner")
	}
	// Drain and check order: 1,2,4,5 cold to hot.
	want := []uint32{1, 2, 4, 5}
	for _, w := range want {
		if got, ppn, _ := l.EvictColdest(); got != w || ppn != owner(w) {
			t.Fatalf("drain got frame %d (ppn %d), want %d", got, ppn, w)
		}
	}
	if _, _, ok := l.EvictColdest(); ok {
		t.Error("drain from empty succeeded")
	}
}

func TestInsertCold(t *testing.T) {
	l := New(32)
	l.Touch(10, owner(10))
	l.Touch(20, owner(20))
	l.InsertCold(5, owner(5))
	if f, _, _ := l.Coldest(); f != 5 {
		t.Fatalf("coldest = %d, want 5", f)
	}
	// InsertCold on existing is a no-op, owner included.
	l.InsertCold(20, 1)
	if l.Len() != 3 {
		t.Errorf("len = %d after duplicate InsertCold", l.Len())
	}
	if ppn, ok := l.Owner(20); !ok || ppn != owner(20) {
		t.Errorf("Owner(20) = %d, %v after duplicate InsertCold; want %d", ppn, ok, owner(20))
	}
}

func TestEmptyOps(t *testing.T) {
	l := New(8)
	l.Remove(1) // no-op
	if _, _, ok := l.Coldest(); ok {
		t.Error("coldest on empty")
	}
	l.InsertCold(7, owner(7))
	if f, ppn, _ := l.Coldest(); f != 7 || ppn != owner(7) {
		t.Error("InsertCold into empty failed")
	}
}

func TestOverhead(t *testing.T) {
	l := New(100)
	for f := uint32(0); f < 100; f++ {
		l.Touch(f, owner(f))
	}
	if l.OverheadBytes() != 1600 {
		t.Errorf("overhead = %d", l.OverheadBytes())
	}
}

// Property: after any operation sequence the list length matches the set of
// tracked frames and drain order has no duplicates.
func TestQuickConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New(50)
		ref := map[uint32]bool{}
		for i := 0; i < 500; i++ {
			f := uint32(rng.Intn(50))
			switch rng.Intn(4) {
			case 0, 1:
				l.Touch(f, owner(f))
				ref[f] = true
			case 2:
				l.Remove(f)
				delete(ref, f)
			case 3:
				l.InsertCold(f, owner(f))
				ref[f] = true
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		seen := map[uint32]bool{}
		for {
			f, ppn, ok := l.EvictColdest()
			if !ok {
				break
			}
			if seen[f] || !ref[f] || ppn != owner(f) {
				return false
			}
			seen[f] = true
		}
		return len(seen) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// entry is the reference model's element: a frame and the page on it.
type entry struct {
	frame uint32
	ppn   uint64
}

// checkMatchesReference replays ops against the list and a container/list
// model (front = hottest) over 1 + frames%64 frames. Each op is two
// bytes: the first picks move-to-front (Touch), InsertCold, Remove or
// EvictColdest and, for the two inserts, the owner PPN; the second picks
// the frame. After every op it compares the length, every frame's
// membership and owner, the coldest entry and the whole hot-to-cold order,
// read by walking the link records.
func checkMatchesReference(t *testing.T, frames uint8, ops []byte) {
	t.Helper()
	n := 1 + uint32(frames)%64
	l := New(int(n))
	model, elem := list.New(), make([]*list.Element, n)
	var order, want []entry
	for i := 0; i+1 < len(ops); i += 2 {
		op, f := ops[i]%4, uint32(ops[i+1])%n
		ppn := uint64(ops[i]>>2)<<24 | uint64(f) // owners vary per op
		switch op {
		case 0:
			l.Touch(f, ppn)
			if e := elem[f]; e != nil {
				e.Value = entry{f, ppn}
				model.MoveToFront(e)
			} else {
				elem[f] = model.PushFront(entry{f, ppn})
			}
		case 1:
			l.InsertCold(f, ppn)
			if elem[f] == nil {
				elem[f] = model.PushBack(entry{f, ppn})
			}
		case 2:
			l.Remove(f)
			if e := elem[f]; e != nil {
				model.Remove(e)
				elem[f] = nil
			}
		case 3:
			gf, gp, ok := l.EvictColdest()
			if back := model.Back(); back == nil {
				if ok {
					t.Fatalf("op %d: EvictColdest on empty list = %d (ppn %d)", i, gf, gp)
				}
			} else if want := back.Value.(entry); !ok || gf != want.frame || gp != want.ppn {
				t.Fatalf("op %d: EvictColdest = %d (ppn %d), %v; model %+v", i, gf, gp, ok, want)
			} else {
				model.Remove(back)
				elem[want.frame] = nil
			}
		}
		if l.Len() != model.Len() {
			t.Fatalf("op %d (%d on %d): Len = %d, model %d", i, op, f, l.Len(), model.Len())
		}
		for q := uint32(0); q < n; q++ {
			ppn, ok := l.Owner(q)
			e := elem[q]
			if l.Contains(q) != (e != nil) || ok != (e != nil) || ok && ppn != e.Value.(entry).ppn {
				t.Fatalf("op %d (%d on %d): frame %d: Contains %v, Owner %d, %v; model %v",
					i, op, f, q, l.Contains(q), ppn, ok, e)
			}
		}
		cf, cp, ok := l.Coldest()
		if ok != (model.Len() > 0) || ok && (entry{cf, cp}) != model.Back().Value.(entry) {
			t.Fatalf("op %d (%d on %d): Coldest = %d (ppn %d), %v", i, op, f, cf, cp, ok)
		}
		order, want = order[:0], want[:0]
		for q, k := l.head, 0; q != 0 && k < l.n; k++ {
			order = append(order, entry{q - 1, uint64(l.recs[q-1].ppn)})
			q = l.recs[q-1].next
		}
		for e := model.Front(); e != nil; e = e.Next() {
			want = append(want, e.Value.(entry))
		}
		if !slices.Equal(order, want) {
			t.Fatalf("op %d (%d on %d): hot-to-cold order %v, model %v", i, op, f, order, want)
		}
	}
}

// FuzzRecencyMatchesReference checks the frame-keyed list against a
// container/list model under move-to-front, InsertCold, Remove and
// EvictColdest over frame keys with owner PPNs. The seeded 40000-byte
// stream covers a long random run under plain go test.
func FuzzRecencyMatchesReference(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 0, 2, 4, 3, 3, 0, 1, 5, 2, 2, 3, 0, 3, 0})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 3, 0, 1, 0, 2, 0, 3, 0})
	ops := make([]byte, 40000)
	rand.New(rand.NewSource(3)).Read(ops)
	f.Add(uint8(39), ops)
	f.Fuzz(checkMatchesReference)
}
