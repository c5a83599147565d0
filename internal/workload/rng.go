package workload

import (
	"math"
	"math/rand"
)

// The trace generator draws several dozen uniform variates per access, most
// of them for its geometric compute gaps, so it owns its source instead of
// dispatching every draw through rand.Rand's Source interface. rng is
// math/rand's additive lagged Fibonacci generator (x[n] = x[n-607] +
// x[n-273] mod 2^64) and yields exactly the stream rand.New(rand.NewSource
// (seed)) yields for the same seed; the tests hold it to that.
const (
	rngLen = 607
	rngTap = 273
)

// floatOneCut is the smallest 63-bit value v with float64(v)/2^63 == 1,
// which math/rand's Float64 resamples instead of returning: float64s just
// below 2^63 are 2^10 apart, so from 2^63-2^9 up the conversion rounds
// (ties to even) to 2^63.
const floatOneCut = 1<<63 - 1<<9

type rng struct {
	tap, feed int
	vec       [rngLen]int64
}

// newRNG returns a generator in the state rand.NewSource(seed) starts in.
// It recovers that state without copying the stdlib's seeding table: it
// reads the first rngLen outputs of the stdlib source, which fill every
// vec slot exactly once, writes each where the forward step stores it, and
// then undoes the rngLen steps.
func newRNG(seed int64) *rng {
	src := rand.NewSource(seed).(rand.Source64)
	r := &rng{tap: 0, feed: rngLen - rngTap}
	for range rngLen {
		r.step()
		r.vec[r.feed] = int64(src.Uint64())
	}
	for range rngLen {
		r.vec[r.feed] -= r.vec[r.tap]
		r.tap = (r.tap + 1) % rngLen
		r.feed = (r.feed + 1) % rngLen
	}
	return r
}

// step advances the indices one position and returns the new vec[feed].
func (r *rng) step() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

func (r *rng) int63() int64 { return r.step() & math.MaxInt64 }

// float64 is rand.Rand.Float64: a value that rounds to 1.0 is resampled.
func (r *rng) float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// int63n is rand.Rand.Int63n.
func (r *rng) int63n(n int64) int64 {
	if n <= 0 {
		panic("workload: invalid argument to int63n")
	}
	if n&(n-1) == 0 {
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}

// int31n is rand.Rand.Int31n.
func (r *rng) int31n(n int32) int32 {
	if n <= 0 {
		panic("workload: invalid argument to int31n")
	}
	if n&(n-1) == 0 {
		return int32(r.int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.int63() >> 32)
	for v > max {
		v = int32(r.int63() >> 32)
	}
	return v % n
}

// intn is rand.Rand.Intn.
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("workload: invalid argument to intn")
	}
	if n <= math.MaxInt32 {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// maxFloatBelow returns the largest 63-bit v with float64(v)/2^63 <= p,
// or -1 if there is none (p < 0). The division is monotone in v, so a
// binary search finds it.
func maxFloatBelow(p float64) int64 {
	if p < 0 {
		return -1
	}
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		// lo+(hi-lo+1)/2 would overflow on the full range.
		mid := hi - (hi-lo)/2
		if float64(mid)/(1<<63) <= p {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// geom counts draws until one satisfies Float64() <= p, where below is
// maxFloatBelow(p), stopping once the count exceeds max. It consumes the
// stream exactly as the open-coded loop
//
//	g := 0
//	for r.Float64() > p {
//		if g++; g > max {
//			break
//		}
//	}
//
// does, but compares 63-bit integers and keeps the indices in locals.
func (r *rng) geom(below int64, max int) int {
	tap, feed := r.tap, r.feed
	g := 0
	for {
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		// Until an index wraps, the steps walk two equal windows of vec
		// downward, with neither wrap nor bounds checks.
		n := min(tap, feed)
		fs, ts := r.vec[feed-n:feed], r.vec[tap-n:tap]
		ts = ts[:len(fs)]
		for i := len(fs) - 1; i >= 0; i-- {
			x := fs[i] + ts[i]
			fs[i] = x
			y := x & math.MaxInt64
			if y >= floatOneCut {
				continue
			}
			if y > below {
				if g++; g <= max {
					continue
				}
			}
			r.tap, r.feed = tap-n+i, feed-n+i
			return g
		}
		tap -= n
		feed -= n
	}
}
