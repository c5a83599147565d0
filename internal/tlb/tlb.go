// Package tlb models the translation lookaside buffer and the per-core page
// walk cache. Following the paper's methodology (Section VI), the TLB is a
// single-level set-associative structure with 2048 entries — sized so the
// simulated hit rate matches real two-level designs (AMD Zen 3) — and the
// walk cache holds upper-level translations so most walks skip the L4/L3
// fetches.
package tlb

// TLB is a set-associative, LRU translation cache keyed by virtual page
// number.
type TLB struct {
	sets  int
	ways  int
	tags  []uint64 // sets*ways entries; +1 so 0 means invalid
	stamp []uint64
	clock uint64
}

// New builds a TLB with the given total entries and associativity.
func New(entries, ways int) *TLB {
	if entries%ways != 0 {
		panic("tlb: entries must be a multiple of ways")
	}
	return &TLB{
		sets:  entries / ways,
		ways:  ways,
		tags:  make([]uint64, entries),
		stamp: make([]uint64, entries),
	}
}

// Lookup probes for vpn, updating recency on a hit.
func (t *TLB) Lookup(vpn uint64) bool {
	set := int(vpn) % t.sets
	base := set * t.ways
	t.clock++
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == vpn+1 {
			t.stamp[base+w] = t.clock
			return true
		}
	}
	return false
}

// Insert fills vpn, evicting the set's LRU entry.
func (t *TLB) Insert(vpn uint64) {
	set := int(vpn) % t.sets
	base := set * t.ways
	victim := base
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if t.stamp[base+w] < t.stamp[victim] {
			victim = base + w
		}
	}
	t.clock++
	t.tags[victim] = vpn + 1
	t.stamp[victim] = t.clock
}

// Flush empties the TLB (context switch).
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = 0
	}
}

// WalkCache caches upper-level page-table entries so a walk can start below
// L4. Entry granularity: level 2 entries cover 2MB (one L1 table page),
// level 3 cover 1GB. A hit at level L means the walker only fetches the
// PTBs at levels <= L.
type WalkCache struct {
	l2 *TLB // caches vpn>>9 -> L1-table-page translations
	l3 *TLB // caches vpn>>18
}

// NewWalkCache sizes the structure from a byte budget (Table III: 1KB per
// core); each cached entry is modeled at 16 bytes, split between levels.
func NewWalkCache(bytes int) *WalkCache {
	entries := bytes / 16
	if entries < 8 {
		entries = 8
	}
	half := entries / 2
	if half%4 != 0 {
		half = (half/4 + 1) * 4
	}
	return &WalkCache{l2: New(half, 4), l3: New(half, 4)}
}

// WalkStart returns the first page-table level the walker must fetch for
// vpn: 1 if the L2-level entry is cached (only the leaf PTB is fetched),
// 2 if only the L3-level is cached, else 4 (full walk). Recency updates on
// probe, matching a real PWC.
func (w *WalkCache) WalkStart(vpn uint64) int {
	if w.l2.Lookup(vpn >> 9) {
		return 1
	}
	if w.l3.Lookup(vpn >> 18) {
		return 2
	}
	return 4
}

// FillFromWalk caches the upper levels touched by a completed walk.
func (w *WalkCache) FillFromWalk(vpn uint64) {
	w.l2.Insert(vpn >> 9)
	w.l3.Insert(vpn >> 18)
}
