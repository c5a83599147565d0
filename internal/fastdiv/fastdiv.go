// Package fastdiv divides by a count fixed when a structure is built.
// Every such count on the simulator's per-access path (cache sets, DRAM
// rows, banks and interleaves, CTE pages per block, the issue width) is a
// power of two in Table III's geometry, where a shift and a mask do the
// work of a 64-bit divide at a fraction of its latency. Other counts stay
// valid and keep the divide, behind one branch that a given structure
// always takes the same way.
package fastdiv

import "math/bits"

// Divisor divides by n. The zero Divisor divides by zero and panics as a
// divide does.
type Divisor struct {
	n     uint64
	shift uint8
	pow2  bool
}

// New returns the Divisor by n. n = 0 keeps the divide, and its panic,
// rather than shifting by 64.
func New(n uint64) Divisor {
	return Divisor{n: n, shift: uint8(bits.TrailingZeros64(n)), pow2: n != 0 && n&(n-1) == 0}
}

// Div returns x / n.
func (d Divisor) Div(x uint64) uint64 {
	if d.pow2 {
		return x >> d.shift
	}
	return x / d.n
}

// Mod returns x % n.
func (d Divisor) Mod(x uint64) uint64 {
	if d.pow2 {
		return x & (d.n - 1)
	}
	return x % d.n
}
