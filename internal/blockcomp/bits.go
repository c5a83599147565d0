package blockcomp

// maxSymbols bounds the code words one block encodes to: BPC's base word
// plus one symbol per bit plane (CPack and FPC use at most one per word).
const maxSymbols = 1 + bpcPlanes

// symbol is one code word — a tag with its fields — held as the low n bits
// of v, most significant first.
type symbol struct {
	v uint64
	n uint8
}

// symbols is the code-word list a bit-coded compressor selects for one
// block, in stream order. It lives on the stack: CompressedSize reads only
// the bit total, and Compress writes the list out as bytes.
type symbols struct {
	list [maxSymbols]symbol
	len  int
	bits int
}

func (s *symbols) add(v uint64, n uint) {
	s.list[s.len] = symbol{v, uint8(n)}
	s.len++
	s.bits += int(n)
}

// size returns the encoding's byte size, capped at BlockSize (stored raw).
func (s *symbols) size() int {
	if size := (s.bits + bitsPerByte - 1) / bitsPerByte; size < BlockSize {
		return size
	}
	return BlockSize
}

// encode returns the bitstream padded to a whole byte, or ok=false when it
// would not beat the raw block.
func (s *symbols) encode() ([]byte, bool) {
	if s.size() == BlockSize {
		return nil, false
	}
	w := bitWriter{buf: make([]byte, 0, s.size())}
	for _, sym := range s.list[:s.len] {
		w.writeBits(sym.v, uint(sym.n))
	}
	return w.buf, true
}

// bitWriter accumulates an MSB-first bitstream.
type bitWriter struct {
	buf  []byte
	nbit uint // bits written into the last byte (0..7)
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
		}
		take := 8 - w.nbit
		if take > n {
			take = n
		}
		bits := (v >> (n - take)) & ((1 << take) - 1)
		w.buf[len(w.buf)-1] |= byte(bits << (8 - w.nbit - take))
		w.nbit = (w.nbit + take) % 8
		n -= take
	}
}

// bitReader consumes an MSB-first bitstream.
type bitReader struct {
	buf []byte
	pos int // bit position
}

func (r *bitReader) readBits(n uint) (uint64, bool) {
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, false
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		byteIdx := (r.pos + int(i)) / 8
		bitIdx := uint(r.pos+int(i)) % 8
		bit := (r.buf[byteIdx] >> (7 - bitIdx)) & 1
		v = v<<1 | uint64(bit)
	}
	r.pos += int(n)
	return v, true
}
