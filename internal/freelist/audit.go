package freelist

import "fmt"

// auditSuper is the O(1) slice of Audit scoped to one super-chunk, cheap
// enough to run after every Alloc/Free on the hot path: the mutated
// super-chunk's slot accounting must stay conserved and the global byte and
// chunk counters must stay sane.
func (m *ML2) auditSuper(ci, si int) error {
	if ci < 0 || ci >= len(m.classes) {
		return fmt.Errorf("class %d out of range", ci)
	}
	l := &m.lists[ci]
	if si < 0 || si >= len(l.supers) {
		return fmt.Errorf("class %d: super %d out of range", ci, si)
	}
	if err := m.checkSuper(ci, si); err != nil {
		return err
	}
	if m.UsedBytes < 0 {
		return fmt.Errorf("UsedBytes=%d negative", m.UsedBytes)
	}
	if m.HeldChunks < 0 {
		return fmt.Errorf("HeldChunks=%d negative", m.HeldChunks)
	}
	return nil
}

// checkSuper verifies one super-chunk's slot accounting against its class:
// a retired super holds no used or free slot, and a live one's used plus
// free slots equal N.
func (m *ML2) checkSuper(ci, si int) error {
	cl, sup := m.classes[ci], m.lists[ci].supers[si]
	if !sup.live {
		// Retired (fully freed) super-chunk awaiting recycling; its slab
		// windows keep their place but hold nothing.
		if sup.used != 0 || sup.free != 0 {
			return fmt.Errorf("class %d super %d: retired but used=%d free=%d",
				ci, si, sup.used, sup.free)
		}
		return nil
	}
	if sup.used < 0 || sup.free < 0 || sup.used+sup.free != cl.N {
		return fmt.Errorf("class %d super %d: used=%d + free=%d != N=%d",
			ci, si, sup.used, sup.free, cl.N)
	}
	return nil
}

// Audit verifies ML2's free-space bookkeeping invariants (Section IV-B's
// conservation properties) across every class — O(slab), so it runs from
// the Settle-time deep audit and from tests rather than per mutation:
//
//   - each class's chunk and slot slabs hold exactly M and N entries per
//     super-chunk;
//   - every live super-chunk's used + free slots equals its class's N, and
//     its free-slot stack holds distinct slots below N;
//   - HeldChunks equals the 4KB chunks owned by live super-chunks;
//   - UsedBytes is non-negative and fits the live sub-chunk capacity;
//   - the partial lists index exactly the live super-chunks with free
//     slots, with no duplicates.
func (m *ML2) Audit() error {
	held := 0
	var capacity int64
	for ci, cl := range m.classes {
		l := &m.lists[ci]
		if len(l.chunks) != len(l.supers)*cl.M || len(l.slots) != len(l.supers)*cl.N {
			return fmt.Errorf("class %d: slabs hold %d chunks and %d slots for %d supers of M=%d, N=%d",
				ci, len(l.chunks), len(l.slots), len(l.supers), cl.M, cl.N)
		}
		inPartial := make(map[int]bool, len(l.partial))
		for _, si := range l.partial {
			if si < 0 || si >= len(l.supers) {
				return fmt.Errorf("class %d: partial index %d out of range", ci, si)
			}
			if inPartial[si] {
				return fmt.Errorf("class %d: super %d listed twice in partial", ci, si)
			}
			inPartial[si] = true
		}
		for si, sup := range l.supers {
			if err := m.checkSuper(ci, si); err != nil {
				return err
			}
			if !sup.live {
				if inPartial[si] {
					return fmt.Errorf("class %d super %d: retired but in partial list", ci, si)
				}
				continue
			}
			held += cl.M
			capacity += int64(cl.N) * int64(cl.SubSize)
			var seen [256]bool
			for _, s := range l.slots[si*cl.N:][:sup.free] {
				if int(s) >= cl.N || seen[s] {
					return fmt.Errorf("class %d super %d: free-slot stack repeats or overruns slot %d (N=%d)",
						ci, si, s, cl.N)
				}
				seen[s] = true
			}
			if wantPartial := sup.free > 0; wantPartial != inPartial[si] {
				return fmt.Errorf("class %d super %d: free=%d but partial-listed=%v",
					ci, si, sup.free, inPartial[si])
			}
		}
	}
	if held != m.HeldChunks {
		return fmt.Errorf("HeldChunks=%d but live super-chunks own %d", m.HeldChunks, held)
	}
	if m.UsedBytes < 0 || m.UsedBytes > capacity {
		return fmt.Errorf("UsedBytes=%d outside [0, capacity=%d]", m.UsedBytes, capacity)
	}
	return nil
}
