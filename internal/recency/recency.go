// Package recency implements ML1's Recency List (Section IV-B): a doubly
// linked list over the pages stored in ML1, hottest at the head, coldest at
// the tail. The hardware updates it for a sampled 1% of ML1 accesses (the
// sampling decision belongs to the caller); eviction victims come from the
// cold end. Incompressible pages are removed so ML1 does not repeatedly try
// to compress them, and are re-inserted with small probability after a
// writeback (also the caller's sampling decision, via Reinsert).
//
// Unlike the free lists, these pointers cannot ride in free space — the
// paper charges 0.4% of DRAM for them; Overhead reports that.
package recency

// List is an intrusive doubly linked list keyed by physical page number.
// Each PPN owns one link record in a PPN-indexed slice rather than a map:
// PPNs come from a bounded OS pool known at build time, so the dense
// layout turns every link update into array stores (the hardware analogy —
// a pointer pair per frame — is also exact), and a touch reads one record.
// The list is circular, the tail's next being the head, and a record names
// its neighbours as PPN+1, so the zero record is a page not in the list. A
// PPN must therefore be below math.MaxUint32.
type List struct {
	links []link
	head  uint32 // hottest page's PPN+1; 0 when empty
	n     int
}

// link is one page's neighbours, each as PPN+1: next toward the cold end,
// prev toward the hot end (wrapping around at the ends).
type link struct{ next, prev uint32 }

// New returns an empty list that grows its directory on demand.
func New() *List { return NewSized(0) }

// NewSized returns an empty list pre-sized for PPNs in [0, capacity), so
// no directory growth (and no allocation) happens during simulation.
func NewSized(capacity int) *List { return &List{links: make([]link, capacity)} }

// ensure grows the directory to cover ppn (no-op for pre-sized lists).
func (l *List) ensure(ppn uint64) {
	if ppn < uint64(len(l.links)) {
		return
	}
	links := make([]link, ppn+ppn/2+64)
	copy(links, l.links)
	l.links = links
}

// Len reports tracked pages.
func (l *List) Len() int { return l.n }

// Contains reports whether ppn is tracked.
func (l *List) Contains(ppn uint64) bool {
	return ppn < uint64(len(l.links)) && l.links[ppn].next != 0
}

// Touch moves ppn to the hot end, inserting it if absent.
func (l *List) Touch(ppn uint64) {
	if l.Contains(ppn) {
		l.unlink(uint32(ppn))
	} else {
		l.ensure(ppn)
		l.n++
	}
	l.insert(uint32(ppn))
	l.head = uint32(ppn) + 1
}

// Remove drops ppn from the list (page migrated away or marked
// incompressible).
func (l *List) Remove(ppn uint64) {
	if !l.Contains(ppn) {
		return
	}
	l.unlink(uint32(ppn))
	l.n--
}

// Coldest returns the tail without removing it; ok=false when empty.
func (l *List) Coldest() (uint64, bool) {
	if l.head == 0 {
		return 0, false
	}
	return uint64(l.links[l.head-1].prev - 1), true
}

// EvictColdest removes and returns the tail.
func (l *List) EvictColdest() (uint64, bool) {
	ppn, ok := l.Coldest()
	if !ok {
		return 0, false
	}
	l.Remove(ppn)
	return ppn, true
}

// InsertCold adds ppn at the cold end (used when re-inserting formerly
// incompressible pages after a writeback: they should be eviction
// candidates soon, not hot).
func (l *List) InsertCold(ppn uint64) {
	if l.Contains(ppn) {
		return
	}
	l.ensure(ppn)
	l.n++
	l.insert(uint32(ppn))
}

// insert links ppn, which is not in the list, between the tail and the
// head: it becomes the new tail, or the head too in an empty list.
func (l *List) insert(ppn uint32) {
	p := ppn + 1
	if l.head == 0 {
		l.links[ppn] = link{next: p, prev: p}
		l.head = p
		return
	}
	h := l.head
	t := l.links[h-1].prev
	l.links[ppn] = link{next: h, prev: t}
	l.links[h-1].prev = p
	l.links[t-1].next = p
}

// unlink removes ppn from the circle and clears its record.
func (l *List) unlink(ppn uint32) {
	p, lk := ppn+1, l.links[ppn]
	if lk.next == p {
		l.head = 0 // the only page
	} else {
		l.links[lk.prev-1].next = lk.next
		l.links[lk.next-1].prev = lk.prev
		if l.head == p {
			l.head = lk.next
		}
	}
	l.links[ppn] = link{}
}

// OverheadBytes models the hardware cost: two pointers plus a PPN per
// tracked ML1 page (the paper reports 0.4% of DRAM).
func (l *List) OverheadBytes() int64 { return int64(l.n) * 16 }
