package tlb

import (
	"math/rand"
	"testing"
)

func TestHitAfterInsert(t *testing.T) {
	tb := New(64, 4)
	if tb.Lookup(42) {
		t.Fatal("hit in empty TLB")
	}
	tb.Insert(42)
	if !tb.Lookup(42) {
		t.Fatal("miss after insert")
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := New(8, 4) // 2 sets of 4 ways
	// Fill one set (even vpns map to set 0).
	for _, v := range []uint64{0, 2, 4, 6} {
		tb.Insert(v)
	}
	tb.Lookup(0) // refresh 0; LRU is now 2
	tb.Insert(8) // evicts 2
	if !tb.Lookup(0) || tb.Lookup(2) || !tb.Lookup(8) {
		t.Error("LRU eviction picked wrong way")
	}
}

func TestCapacityBehaviour(t *testing.T) {
	tb := New(2048, 8)
	// A working set within capacity must hit on re-traversal...
	for v := uint64(0); v < 2000; v++ {
		tb.Insert(v)
	}
	hits := 0
	for v := uint64(0); v < 2000; v++ {
		if tb.Lookup(v) {
			hits++
		}
	}
	if hits < 1900 {
		t.Errorf("in-capacity working set: %d/2000 hits", hits)
	}
	// ...and a far larger irregular set must mostly miss.
	rng := rand.New(rand.NewSource(3))
	tb2 := New(2048, 8)
	misses := 0
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Intn(1 << 22))
		if !tb2.Lookup(v) {
			misses++
			tb2.Insert(v)
		}
	}
	if misses < 19000 {
		t.Errorf("irregular set: only %d/20000 misses", misses)
	}
}

func TestFlush(t *testing.T) {
	tb := New(64, 4)
	tb.Insert(1)
	tb.Flush()
	if tb.Lookup(1) {
		t.Error("hit after flush")
	}
}

func TestWalkCacheLevels(t *testing.T) {
	wc := NewWalkCache(1024)
	vpn := uint64(0x12345)
	if got := wc.WalkStart(vpn); got != 4 {
		t.Fatalf("cold walk start = %d, want 4", got)
	}
	wc.FillFromWalk(vpn)
	if got := wc.WalkStart(vpn); got != 1 {
		t.Fatalf("warm walk start = %d, want 1", got)
	}
	// A neighbour under the same L1 table page (same vpn>>9) also starts
	// at level 1; one under a different table page but same 1GB region
	// starts at 2.
	if got := wc.WalkStart(vpn ^ 0x7); got != 1 {
		t.Errorf("same-2MB neighbour start = %d, want 1", got)
	}
	far := vpn + 1<<9
	if got := wc.WalkStart(far); got != 2 {
		t.Errorf("same-1GB neighbour start = %d, want 2", got)
	}
}
