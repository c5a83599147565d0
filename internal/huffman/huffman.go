// Package huffman implements the paper's reduced Huffman coder (Section
// V-B1): a tree with at most 16 leaves — the 15 hottest byte values of the
// input plus one escape symbol — built the usual way (repeatedly combining
// the two lowest-frequency nodes) with a tunable depth threshold enforced by
// discarding the less-frequent sibling of an over-deep pair (never the
// escape). Characters missing from the tree are coded as the escape code
// followed by the raw 8-bit character. The tree ships uncompressed in a
// plain header so the decompressor needs no slow canonical-tree
// reconstruction (16 cycles to read, versus >500 ns in IBM's design).
package huffman

import (
	"fmt"
	"sort"
)

// MaxLeaves is the reduced tree size (15 hot characters + escape).
const MaxLeaves = 16

// DefaultMaxDepth bounds code length so the hardware decoder's 32-bit/cycle
// window always covers at least four codes.
const DefaultMaxDepth = 8

// escape is the internal symbol index for the escape code.
const escSymbol = -1

// Table is a built reduced-Huffman code table for one input.
type Table struct {
	// hot maps a byte value to its code index; -1 when escape-coded.
	hot [256]int16
	// chars lists the in-tree byte values, in header order.
	chars []byte
	// codeOf[i] is the canonical code for chars[i]; codeOf[len(chars)] is
	// the escape code.
	codes []code
	dec   *decodeLUT
}

type code struct {
	bits uint32
	len  uint8
}

// Stats describes one Analyze+Encode pass for the cycle model.
type Stats struct {
	InputBytes int
	OutputBits int
	Escapes    int
}

type node struct {
	freq   int
	sym    int // >=0: index into hot chars; escSymbol: escape; -2: internal
	l, r   *node
	height int
}

// Analyze builds the reduced table for data using the given depth limit
// (0 means DefaultMaxDepth).
func Analyze(data []byte, maxDepth int) *Table {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	hotChars, hotFreq := hottest(&freq)
	escFreq := len(data)
	for _, f := range hotFreq {
		escFreq -= f
	}
	return build(hotChars, hotFreq, escFreq, maxDepth)
}

// hottest returns the MaxLeaves-1 most frequent present bytes of freq
// (the Select 15 Chars stage) and their counts, by descending frequency
// and then ascending byte. It inserts each present byte into a sorted
// list of at most MaxLeaves-1 entries; a byte that cannot enter a full
// list costs one comparison, so no sort runs over all 256 values.
func hottest(freq *[256]int) ([]byte, []int) {
	const n = MaxLeaves - 1
	var chars [n]byte
	var fs [n]int
	k := 0
	for c := 0; c < 256; c++ {
		f := freq[c]
		// Bytes arrive in ascending order, so an equal count ranks after
		// every listed one: f must beat the last entry strictly.
		if f == 0 || (k == n && f <= fs[n-1]) {
			continue
		}
		i := k
		if k < n {
			k++
		} else {
			i = n - 1
		}
		for ; i > 0 && fs[i-1] < f; i-- {
			chars[i], fs[i] = chars[i-1], fs[i-1]
		}
		chars[i], fs[i] = byte(c), f
	}
	return append([]byte(nil), chars[:k]...), append([]int(nil), fs[:k]...)
}

// build constructs the depth-limited tree and canonical codes.
func build(hotChars []byte, hotFreq []int, escFreq, maxDepth int) *Table {
	for {
		lengths := huffLengths(hotFreq, escFreq)
		over := -1
		for i, l := range lengths {
			if int(l) > maxDepth {
				// Discard the least-frequent over-deep non-escape symbol
				// (the escape is the last entry and is never discarded).
				if i == len(lengths)-1 {
					continue
				}
				if over == -1 || hotFreq[i] < hotFreq[over] {
					over = i
				}
			}
		}
		if over == -1 {
			t := &Table{chars: hotChars}
			for i := range t.hot {
				t.hot[i] = -1
			}
			t.codes = canonical(lengths)
			for i, c := range hotChars {
				t.hot[c] = int16(i)
			}
			return t
		}
		// Discarding moves the char's traffic onto the escape path.
		escFreq += hotFreq[over]
		hotChars = append(hotChars[:over:over], hotChars[over+1:]...)
		hotFreq = append(hotFreq[:over:over], hotFreq[over+1:]...)
	}
}

// huffLengths runs plain Huffman over the hot frequencies plus the escape
// (always last) and returns code lengths per symbol.
func huffLengths(hotFreq []int, escFreq int) []uint8 {
	n := len(hotFreq) + 1
	if n == 1 {
		return []uint8{1}
	}
	// The tree's 2n-1 nodes live in one slice whose capacity never
	// grows, so the pointers into it stay valid.
	nodes := make([]node, 0, 2*n-1)
	for i, f := range hotFreq {
		nodes = append(nodes, node{freq: f, sym: i})
	}
	nodes = append(nodes, node{freq: escFreq, sym: escSymbol})
	var liveBuf [MaxLeaves]*node
	live := liveBuf[:0]
	for i := range nodes {
		live = append(live, &nodes[i])
	}
	// Repeatedly combine the two lowest-frequency nodes; break frequency
	// ties by height then by first-symbol order for determinism. The
	// insertion sort is stable, and the merged node goes to the front.
	for len(live) > 1 {
		for i := 1; i < len(live); i++ {
			for j := i; j > 0 && lighter(live[j], live[j-1]); j-- {
				live[j], live[j-1] = live[j-1], live[j]
			}
		}
		a, b := live[0], live[1]
		h := a.height
		if b.height > h {
			h = b.height
		}
		nodes = append(nodes, node{freq: a.freq + b.freq, sym: -2, l: a, r: b, height: h + 1})
		live = live[1:]
		live[0] = &nodes[len(nodes)-1]
	}
	lengths := make([]uint8, n)
	var walk func(nd *node, depth uint8)
	walk = func(nd *node, depth uint8) {
		if nd.sym != -2 {
			idx := nd.sym
			if idx == escSymbol {
				idx = n - 1
			}
			if depth == 0 {
				depth = 1 // degenerate single-node tree
			}
			lengths[idx] = depth
			return
		}
		walk(nd.l, depth+1)
		walk(nd.r, depth+1)
	}
	walk(live[0], 0)
	return lengths
}

// lighter orders huffLengths' live nodes: by frequency, then height.
func lighter(a, b *node) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.height < b.height
}

// canonical assigns canonical codes for the given lengths in symbol order.
func canonical(lengths []uint8) []code {
	type sl struct {
		sym int
		l   uint8
	}
	order := make([]sl, len(lengths))
	for i, l := range lengths {
		order[i] = sl{i, l}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].l != order[j].l {
			return order[i].l < order[j].l
		}
		return order[i].sym < order[j].sym
	})
	codes := make([]code, len(lengths))
	var next uint32
	var prevLen uint8
	for _, e := range order {
		next <<= uint(e.l - prevLen)
		prevLen = e.l
		codes[e.sym] = code{bits: next, len: e.l}
		next++
	}
	return codes
}

// HeaderSize returns the byte size of the plain (uncompressed) tree header:
// 1 count byte, the hot characters, and 4-bit code lengths (including the
// escape's) packed two per byte.
func (t *Table) HeaderSize() int {
	n := len(t.chars) + 1 // +escape
	return 1 + len(t.chars) + (n+1)/2
}

// AppendHeader writes the plain tree format.
func (t *Table) AppendHeader(dst []byte) []byte {
	n := len(t.chars) + 1
	dst = append(dst, byte(n))
	dst = append(dst, t.chars...)
	for i := 0; i < n; i += 2 {
		b := t.codes[i].len & 0x0f
		if i+1 < n {
			b |= (t.codes[i+1].len & 0x0f) << 4
		}
		dst = append(dst, b)
	}
	return dst
}

// ParseHeader reads a header written by AppendHeader and returns the table
// and the number of bytes consumed.
func ParseHeader(src []byte) (*Table, int, error) {
	if len(src) < 1 {
		return nil, 0, fmt.Errorf("huffman: empty header")
	}
	n := int(src[0])
	if n < 1 || n > MaxLeaves {
		return nil, 0, fmt.Errorf("huffman: bad leaf count %d", n)
	}
	nchars := n - 1
	lenBytes := (n + 1) / 2
	total := 1 + nchars + lenBytes
	if len(src) < total {
		return nil, 0, fmt.Errorf("huffman: truncated header")
	}
	t := &Table{chars: append([]byte(nil), src[1:1+nchars]...)}
	for i := range t.hot {
		t.hot[i] = -1
	}
	lengths := make([]uint8, n)
	for i := 0; i < n; i++ {
		b := src[1+nchars+i/2]
		if i%2 == 0 {
			lengths[i] = b & 0x0f
		} else {
			lengths[i] = b >> 4
		}
	}
	t.codes = canonical(lengths)
	for i, c := range t.chars {
		t.hot[c] = int16(i)
	}
	return t, total, nil
}

// Measure returns the stats Encode would report for data — the stream's
// bit length and escape count — from data's byte histogram, without
// emitting the stream.
func (t *Table) Measure(data []byte) Stats {
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	st := Stats{InputBytes: len(data)}
	escLen := int(t.codes[len(t.chars)].len)
	for b, f := range freq {
		if f == 0 {
			continue
		}
		if idx := t.hot[b]; idx >= 0 {
			st.OutputBits += f * int(t.codes[idx].len)
		} else {
			st.OutputBits += f * (escLen + 8)
			st.Escapes += f
		}
	}
	return st
}

// Encode appends the Huffman bitstream for data (no header) to dst and
// returns its stats, which are Measure's. The stream is padded to a byte
// boundary.
func (t *Table) Encode(dst, data []byte) ([]byte, Stats) {
	esc := t.codes[len(t.chars)]
	var acc uint64
	var nbits uint
	put := func(c code) {
		acc = acc<<uint(c.len) | uint64(c.bits)
		nbits += uint(c.len)
		for nbits >= 8 {
			dst = append(dst, byte(acc>>(nbits-8)))
			nbits -= 8
		}
	}
	for _, b := range data {
		if idx := t.hot[b]; idx >= 0 {
			put(t.codes[idx])
		} else {
			put(esc)
			put(code{bits: uint32(b), len: 8})
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc<<(8-nbits)))
	}
	return dst, t.Measure(data)
}

// decodeLUT maps the next maxLen bits to (symbol index, code length); built
// lazily on first Decode.
type decodeLUT struct {
	maxLen uint
	sym    []int16
	ln     []uint8
}

func (t *Table) lut() *decodeLUT {
	if t.dec != nil {
		return t.dec
	}
	maxLen := uint(t.MaxCodeLen())
	l := &decodeLUT{
		maxLen: maxLen,
		sym:    make([]int16, 1<<maxLen),
		ln:     make([]uint8, 1<<maxLen),
	}
	for i := range l.sym {
		l.sym[i] = -1
	}
	for i, c := range t.codes {
		if c.len == 0 {
			continue
		}
		fill := maxLen - uint(c.len)
		base := c.bits << fill
		for j := uint32(0); j < 1<<fill; j++ {
			l.sym[base|j] = int16(i)
			l.ln[base|j] = c.len
		}
	}
	t.dec = l
	return l
}

// Decode reads outLen symbols (bytes) from the bitstream.
func (t *Table) Decode(enc []byte, outLen int) ([]byte, error) {
	out := make([]byte, 0, outLen)
	escIdx := int16(len(t.chars))
	l := t.lut()
	var acc uint64
	var nbits uint
	pos := 0
	fill := func(need uint) bool {
		for nbits < need {
			if pos < len(enc) {
				acc = acc<<8 | uint64(enc[pos])
				pos++
				nbits += 8
			} else if nbits == 0 {
				return false
			} else {
				// Virtual zero padding at end of stream.
				acc <<= 8
				nbits += 8
				if nbits > 64 {
					return false
				}
			}
		}
		return true
	}
	for len(out) < outLen {
		if !fill(l.maxLen) {
			return nil, fmt.Errorf("huffman: truncated stream")
		}
		peek := uint32(acc>>(nbits-l.maxLen)) & ((1 << l.maxLen) - 1)
		sym := l.sym[peek]
		if sym < 0 {
			return nil, fmt.Errorf("huffman: invalid code")
		}
		nbits -= uint(l.ln[peek])
		if sym == escIdx {
			if !fill(8) {
				return nil, fmt.Errorf("huffman: truncated escape")
			}
			out = append(out, byte(acc>>(nbits-8)))
			nbits -= 8
		} else {
			out = append(out, t.chars[sym])
		}
	}
	return out, nil
}

// NumLeaves reports the tree size including the escape.
func (t *Table) NumLeaves() int { return len(t.chars) + 1 }

// MaxCodeLen reports the depth of the built tree.
func (t *Table) MaxCodeLen() int {
	var m uint8
	for _, c := range t.codes {
		if c.len > m {
			m = c.len
		}
	}
	return int(m)
}
