package sim

import (
	"runtime"

	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/tlb"
	"tmcc/internal/workload"
)

// ringDepth is the number of accessBatches each core owns: one held by the
// timing loop, the rest in flight between the producer and the core.
const ringDepth = 8

// producer generates and translates trace records on its own goroutine,
// ringDepth batches per core ahead of the timing loop, and runs each
// record through its core's TLB and L1. It owns the cores' traces, TLBs and
// L1s; the timing goroutine owns everything else. That is exact because a
// core's TLB and L1 see only that core's records, in stream order: no walk
// cache, L2, L3, MC, fault, RAS or observer reads or writes them, L1
// victims are dropped, and no simulated time feeds back into either. It
// holds no reference to the Runner, only what generation needs, so a
// dropped Runner is collectable while its producer is parked.
//
// Batches circulate: the timing goroutine hands each used batch back on
// free, the producer refills it for the core that owns it and sends it on
// that core's full channel. A core's batches are filled in the order its
// used ones come back and consumed in the order they were filled, so every
// core sees exactly the record stream of its trace.
type producer struct {
	fronts   []frontEnd          // indexed by core id
	full     []chan *accessBatch // per core, filled batches in trace order
	free     chan *accessBatch   // used batches of any core
	quit     chan struct{}       // closed once the Runner is unreachable
	vlo      uint64              // see Runner.vlo
	vpnToPPN []uint32            // frozen after build, see Runner.vpnToPPN
	fault    any                 // a recovered panic, set before full closes
}

// frontEnd is one core's share of the producer: its trace and the two
// structures only its own records touch.
type frontEnd struct {
	trace *workload.Trace
	tlb   *tlb.TLB
	l1    *cache.Cache
}

// feed is the Runner's handle on its producer. Only the Runner references
// it, so its finalizer runs once the Runner is unreachable and stops the
// producer.
type feed struct{ *producer }

// startProducer builds every core's ring and starts the producer. It runs
// on the first runAccesses, so system construction never pays for it, and
// the producer then lives as long as the Runner.
func (r *Runner) startProducer() {
	n := len(r.cores)
	// Both channels are sized to every batch that can be queued on them
	// (all batches on free, one core's ring on its full channel), so
	// neither side ever blocks on a send.
	p := &producer{
		fronts:   make([]frontEnd, n),
		full:     make([]chan *accessBatch, n),
		free:     make(chan *accessBatch, n*ringDepth),
		quit:     make(chan struct{}),
		vlo:      r.vlo,
		vpnToPPN: r.vpnToPPN,
	}
	for i, c := range r.cores {
		p.fronts[i] = frontEnd{trace: c.trace, tlb: c.tlb, l1: c.l1}
		c.trace, c.tlb, c.l1 = nil, nil, nil
		p.full[i] = make(chan *accessBatch, ringDepth)
		ring := make([]accessBatch, ringDepth)
		for j := range ring {
			ring[j].core = i
			ring[j].pos = batchSize
		}
		// The core starts on a used batch, so its first step takes a
		// filled one; the producer fills the rest.
		c.batch = &ring[0]
		for j := 1; j < ringDepth; j++ {
			p.free <- &ring[j]
		}
	}
	r.feed = &feed{p}
	runtime.SetFinalizer(r.feed, func(f *feed) { close(f.quit) })
	go p.run()
}

// run fills used batches until quit closes. A panic in generation or
// translation is recovered and stored, and every full channel is closed,
// so the timing goroutine re-raises it at its next batch (nextBatch).
func (p *producer) run() {
	defer func() {
		if v := recover(); v != nil {
			p.fault = v
			for _, ch := range p.full {
				close(ch)
			}
		}
	}()
	for {
		select {
		case b := <-p.free:
			p.fill(b)
			p.full[b.core] <- b
		case <-p.quit:
			return
		}
	}
}

// fill generates and translates the next batchSize records of b's core
// and runs each through the core's TLB (a miss fills it) and, when mapped,
// its L1 (a write hit marks the line dirty, a miss fills it with the
// write's flag).
func (p *producer) fill(b *accessBatch) {
	fe := &p.fronts[b.core]
	for i := range b.vaddr {
		a := fe.trace.Next()
		vpn := a.VAddr >> 12
		ppn := translate(p.vpnToPPN, p.vlo, vpn)
		miss := !fe.tlb.Lookup(vpn)
		if miss {
			fe.tlb.Insert(vpn)
		}
		hit := false
		if ppn != unmappedPPN {
			var f uint8
			if a.Write {
				f = cache.FlagDirty
			}
			block := dataBlock(ppn, a.VAddr)
			if s := fe.l1.Lookup(block); s >= 0 {
				fe.l1.OrFlagsAt(s, f)
				hit = true
			} else {
				fe.l1.Insert(block, f)
			}
		}
		b.vaddr[i] = a.VAddr
		b.ppn[i] = ppn
		b.gap[i] = int32(a.Gap)
		b.write[i] = a.Write
		b.dep[i] = a.Dep
		b.tlbMiss[i] = miss
		b.l1Hit[i] = hit
	}
	b.pos = 0
}

// nextBatch swaps core c's used batch for its next filled one. When the
// producer has died on a panic, the panic is re-raised here, on the timing
// goroutine, with the same value.
func (r *Runner) nextBatch(c *core) *accessBatch {
	b, ok := <-r.feed.full[c.id]
	if !ok {
		panic(r.feed.fault) //tmcclint:allow panic-prefix (re-raises the producer's recovered value unchanged)
	}
	r.feed.free <- c.batch
	c.batch = b
	return b
}

// dataBlock is the 64B block a record at vaddr touches on data page ppn.
func dataBlock(ppn, vaddr uint64) uint64 {
	return ppn*config.BlocksPage + vaddr>>6&(config.BlocksPage-1)
}

// translate resolves a trace virtual page through a dense table offset by
// vlo to the PPN the MC sees (host-physical under virtualization), or
// unmappedPPN.
func translate(vpnToPPN []uint32, vlo, vpn uint64) uint64 {
	idx := vpn - vlo
	if idx >= uint64(len(vpnToPPN)) || vpnToPPN[idx] == noPPN {
		return unmappedPPN
	}
	return uint64(vpnToPPN[idx])
}
