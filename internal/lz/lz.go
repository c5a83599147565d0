// Package lz implements the LZ stage of the paper's memory-specialized ASIC
// Deflate (Section V-B2/B4): a sliding-window matcher with a 1KB near-history
// CAM (tunable 256B..4KB), greedy match selection (no RFC 1951 "lazy
// matching"), and a space-efficient 8-bit output alphabet — the LZ output is
// a plain byte stream, so the downstream reduced-Huffman stage can treat it
// as 256-symbol input.
//
// Output byte-stream format (a design choice documented in DESIGN.md; the
// paper specifies the alphabet width but not the framing): tokens are
// emitted in groups of up to 8, each group preceded by a 1-byte mask; bit i
// of the mask (LSB-first) marks token i as a match. A literal token is one
// byte. A match token is two bytes packing offset-1 in log2(window) bits
// and length-MinMatch in the remaining 16-log2(window) bits, little-endian
// as off | len<<offBits.
package lz

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"tmcc/internal/config"
)

// MinMatch mirrors Deflate's minimum useful match.
const MinMatch = 3

// DefaultWindow is the CAM size the paper converges on: 1 KB keeps the LZ
// compressor at 0.060 mm^2 while costing only 1.6% compression ratio on
// non-zero pages versus a 4 KB CAM.
const DefaultWindow = 1024

// Stats reports what happened while compressing one input, feeding the
// cycle model in package memdeflate.
type Stats struct {
	InputBytes  int
	OutputBytes int
	Literals    int
	Matches     int
	MatchedIn   int // input bytes covered by matches
	CopyCycles  int // sum over matches of ceil(len/8): LZ-decode copy cycles
}

// Compressor is a sliding-window LZ compressor with a fixed window
// ("CAM") size. The zero value is not usable; call New.
//
// The 16K-entry head table is invalidated between pages by bumping a
// generation counter instead of rewriting every slot: a head entry is live
// only when its stamp matches the current generation, and the stamp sits
// next to the position it guards, so a lookup touches one cache line.
// Clearing the head table per 4KB page dominated Compress for short or
// incompressible inputs; the stamp makes the per-page reset O(1) while
// producing the exact same token stream (see
// TestEpochResetMatchesFreshCompressor).
type Compressor struct {
	window   int
	offBits  uint
	maxMatch int
	head     []headSlot
	gen      uint32
	prev     []int32
}

// headSlot is one hash chain's head: the newest position with the hash,
// valid only while gen is the Compressor's current generation.
type headSlot struct {
	gen uint32
	pos int32
}

// New returns a Compressor with the given CAM/window size in bytes.
// Window must be a power of two between 256 and 4096.
func New(window int) *Compressor {
	if window < 256 || window > config.PageSize || window&(window-1) != 0 {
		panic(fmt.Sprintf("lz: invalid window %d", window))
	}
	offBits := uint(bits.TrailingZeros(uint(window)))
	return &Compressor{
		window:   window,
		offBits:  offBits,
		maxMatch: MinMatch + (1 << (16 - offBits)) - 1,
		head:     make([]headSlot, 1<<14),
		gen:      0, // first beginPage bumps to 1, distinct from the zeroed stamps
		prev:     make([]int32, config.PageSize),
	}
}

// beginPage starts a fresh hash-chain generation. On uint32 wraparound
// (once every 2^32 pages) the stamps are cleared so stale entries cannot
// alias the reused generation value.
func (c *Compressor) beginPage() {
	c.gen++
	if c.gen == 0 {
		clear(c.head)
		c.gen = 1
	}
}

// Window returns the configured CAM size.
func (c *Compressor) Window() int { return c.window }

func hash3(b []byte) uint32 {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
	return (v * 0x9E3779B1) >> 18 // 14-bit hash
}

// Compress encodes src (at most 4096 bytes) and appends to dst, returning
// the extended buffer and the stats. The encoding is deterministic and
// greedy: at each position the longest match within the window wins
// (ties to the nearest), matching the hardware's Select Match stage.
//
// Tokens go straight into dst: each group's mask byte is appended when
// its first token is, and a match sets its bit there.
func (c *Compressor) Compress(dst, src []byte) ([]byte, Stats) {
	if len(src) > config.PageSize {
		panic("lz: input larger than a page")
	}
	var st Stats
	st.InputBytes = len(src)
	c.beginPage()
	startLen := len(dst)
	// The longest stream is all literals: a byte per input byte and a
	// mask per 8.
	dst = slices.Grow(dst, len(src)+(len(src)+7)/8)
	mask, nTok := 0, 8 // the group's mask index; 8 starts a new group

	pos := 0
	for pos < len(src) {
		bestLen, bestOff := 0, 0
		var h uint32
		hashed := pos+MinMatch <= len(src)
		if hashed {
			h = hash3(src[pos:])
			limit := pos - c.window
			for cand := c.headAt(h); cand >= 0 && int(cand) >= limit; cand = c.prev[cand] {
				// Only a strictly longer match replaces the best, so a
				// candidate that differs at byte bestLen cannot win, and
				// once the best reaches the end of src nothing can.
				if pos+bestLen >= len(src) {
					break
				}
				if src[int(cand)+bestLen] != src[pos+bestLen] {
					continue
				}
				l := c.matchLen(src, int(cand), pos)
				if l > bestLen {
					bestLen, bestOff = l, pos-int(cand)
					if l >= c.maxMatch {
						break
					}
				}
			}
		}
		if nTok == 8 {
			mask, nTok = len(dst), 0
			dst = append(dst, 0)
		}
		if bestLen >= MinMatch {
			dst[mask] |= 1 << nTok
			v := uint16(bestOff-1) | uint16(bestLen-MinMatch)<<c.offBits
			dst = append(dst, byte(v), byte(v>>8))
			st.Matches++
			st.MatchedIn += bestLen
			st.CopyCycles += (bestLen + 7) / 8
			c.insert(pos, h)
			for j := pos + 1; j < pos+bestLen && j+MinMatch <= len(src); j++ {
				c.insert(j, hash3(src[j:]))
			}
			pos += bestLen
		} else {
			dst = append(dst, src[pos])
			st.Literals++
			if hashed {
				c.insert(pos, h)
			}
			pos++
		}
		nTok++
	}
	st.OutputBytes = len(dst) - startLen
	return dst, st
}

// insert puts pos, whose first three bytes hash to h, at the head of
// its hash chain.
func (c *Compressor) insert(pos int, h uint32) {
	hs := &c.head[h]
	if hs.gen == c.gen {
		c.prev[pos] = hs.pos
	} else {
		c.prev[pos] = -1
	}
	*hs = headSlot{c.gen, int32(pos)}
}

// headAt reads a chain head; a stale-generation slot is an empty chain.
func (c *Compressor) headAt(h uint32) int32 {
	if hs := c.head[h]; hs.gen == c.gen {
		return hs.pos
	}
	return -1
}

// matchLen returns the length of the common prefix of src[cand:] and
// src[pos:], capped at maxMatch. It compares 8 bytes per step — the
// byte-at-a-time loop was the other Compress hot spot — and locates the
// first differing byte inside a word with a trailing-zeros count. Reads
// stay in bounds: n+8 <= max implies pos+n+8 <= len(src), and cand < pos.
// Overlapping matches (cand+n crossing pos) compare the same raw source
// bytes the byte loop would, so the result is identical.
func (c *Compressor) matchLen(src []byte, cand, pos int) int {
	max := len(src) - pos
	if max > c.maxMatch {
		max = c.maxMatch
	}
	n := 0
	for n+8 <= max {
		x := binary.LittleEndian.Uint64(src[cand+n:]) ^ binary.LittleEndian.Uint64(src[pos+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && src[cand+n] == src[pos+n] {
		n++
	}
	return n
}

// Decompress decodes an LZ stream produced by a Compressor with the given
// window size, writing exactly outLen bytes.
func Decompress(enc []byte, outLen, window int) ([]byte, error) {
	if window < 256 || window > config.PageSize || window&(window-1) != 0 {
		return nil, fmt.Errorf("lz: invalid window %d", window)
	}
	offBits := uint(bits.TrailingZeros(uint(window)))
	offMask := uint16(window - 1)
	out := make([]byte, 0, outLen)
	i := 0
	for len(out) < outLen {
		if i >= len(enc) {
			return nil, fmt.Errorf("lz: truncated stream at mask")
		}
		mask := enc[i]
		i++
		for t := 0; t < 8 && len(out) < outLen; t++ {
			if mask&(1<<uint(t)) == 0 {
				if i >= len(enc) {
					return nil, fmt.Errorf("lz: truncated literal")
				}
				out = append(out, enc[i])
				i++
				continue
			}
			if i+1 >= len(enc) {
				return nil, fmt.Errorf("lz: truncated match")
			}
			v := uint16(enc[i]) | uint16(enc[i+1])<<8
			i += 2
			off := int(v&offMask) + 1
			length := int(v>>offBits) + MinMatch
			if off > len(out) {
				return nil, fmt.Errorf("lz: match offset %d beyond output %d", off, len(out))
			}
			if len(out)+length > outLen {
				return nil, fmt.Errorf("lz: match overruns output")
			}
			for j := 0; j < length; j++ {
				out = append(out, out[len(out)-off])
			}
		}
	}
	return out, nil
}
