// Package recency implements ML1's Recency List (Section IV-B): a doubly
// linked list over the pages stored in ML1, hottest at the head, coldest at
// the tail. The hardware updates it for a sampled 1% of ML1 accesses (the
// sampling decision belongs to the caller); eviction victims come from the
// cold end. Incompressible pages are removed so ML1 does not repeatedly try
// to compress them, and are re-inserted with small probability after a
// writeback (also the caller's sampling decision, via InsertCold).
//
// Unlike the free lists, these pointers cannot ride in free space — the
// paper charges 0.4% of DRAM for them; OverheadBytes reports that.
package recency

// List is an intrusive doubly linked list keyed by ML1 frame, as in the
// hardware: each frame owns one record of two pointers plus the PPN of the
// page it holds, in a frame-indexed slice sized once for every frame the
// controller can hand out, so a touch reads one record and every link
// update is an array store. A frame holds at most one page, and a listed
// page keeps its frame until it leaves the list, so keying by frame orders
// the pages exactly as keying by PPN would. The list is circular, the
// tail's next being the head, and a record names its neighbours as
// frame+1, so the zero record is a frame not in the list. Frame numbers
// and PPNs must therefore be below math.MaxUint32.
type List struct {
	recs []record
	head uint32 // hottest frame+1; 0 when empty
	n    int
}

// record is one frame's entry: its neighbours as frame+1, next toward the
// cold end and prev toward the hot end (wrapping around at the ends), and
// the PPN of the page on the frame.
type record struct{ next, prev, ppn uint32 }

// New returns an empty list over frames [0, frames).
func New(frames int) *List { return &List{recs: make([]record, frames)} }

// Len reports tracked pages.
func (l *List) Len() int { return l.n }

// Contains reports whether frame is tracked.
func (l *List) Contains(frame uint32) bool { return l.recs[frame].next != 0 }

// Owner reports the PPN listed on frame; ok=false when frame is not
// tracked.
func (l *List) Owner(frame uint32) (ppn uint64, ok bool) {
	r := l.recs[frame]
	return uint64(r.ppn), r.next != 0
}

// Touch moves frame to the hot end, inserting it for page ppn if absent.
func (l *List) Touch(frame uint32, ppn uint64) {
	if l.Contains(frame) {
		l.unlink(frame)
	} else {
		l.n++
	}
	l.insert(frame, ppn)
	l.head = frame + 1
}

// Remove drops frame from the list (page migrated away or marked
// incompressible).
func (l *List) Remove(frame uint32) {
	if !l.Contains(frame) {
		return
	}
	l.unlink(frame)
	l.n--
}

// Coldest returns the tail frame and its page without removing them;
// ok=false when empty.
func (l *List) Coldest() (frame uint32, ppn uint64, ok bool) {
	if l.head == 0 {
		return 0, 0, false
	}
	frame = l.recs[l.head-1].prev - 1
	return frame, uint64(l.recs[frame].ppn), true
}

// EvictColdest removes and returns the tail frame and its page.
func (l *List) EvictColdest() (frame uint32, ppn uint64, ok bool) {
	frame, ppn, ok = l.Coldest()
	if ok {
		l.Remove(frame)
	}
	return frame, ppn, ok
}

// InsertCold adds frame, holding page ppn, at the cold end (used when
// re-inserting formerly incompressible pages after a writeback: they
// should be eviction candidates soon, not hot).
func (l *List) InsertCold(frame uint32, ppn uint64) {
	if l.Contains(frame) {
		return
	}
	l.n++
	l.insert(frame, ppn)
}

// insert links frame, which is not in the list, between the tail and the
// head: it becomes the new tail, or the head too in an empty list.
func (l *List) insert(frame uint32, ppn uint64) {
	f := frame + 1
	if l.head == 0 {
		l.recs[frame] = record{next: f, prev: f, ppn: uint32(ppn)}
		l.head = f
		return
	}
	h := l.head
	t := l.recs[h-1].prev
	l.recs[frame] = record{next: h, prev: t, ppn: uint32(ppn)}
	l.recs[h-1].prev = f
	l.recs[t-1].next = f
}

// unlink removes frame from the circle and clears its record.
func (l *List) unlink(frame uint32) {
	f, r := frame+1, l.recs[frame]
	if r.next == f {
		l.head = 0 // the only frame
	} else {
		l.recs[r.prev-1].next = r.next
		l.recs[r.next-1].prev = r.prev
		if l.head == f {
			l.head = r.next
		}
	}
	l.recs[frame] = record{}
}

// OverheadBytes models the hardware cost: two pointers plus a PPN per
// tracked ML1 page (the paper reports 0.4% of DRAM).
func (l *List) OverheadBytes() int64 { return int64(l.n) * 16 }
