package blockcomp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BPC implements Bit-Plane Compression (Kim et al., ISCA 2016) adapted to
// 64-byte blocks: the block is read as 16 little-endian 32-bit words, the
// 15 word-to-word deltas (33-bit two's complement) are bit-plane transposed
// (DBP), adjacent planes are XORed (DBX), and each of the 33 resulting
// 15-bit planes is encoded with the original's run-length/pattern symbols:
//
//	01     + 6b   run of 2..33 all-zero DBX planes
//	001           single all-zero DBX plane
//	00000         all-ones DBX plane
//	00001         DBX != 0 but DBP == 0
//	00010  + 4b   two consecutive ones at position p,p+1
//	00011  + 4b   single one at position p
//	1      + 15b  uncompressed plane
//
// The base word is coded as '0' when zero, else '1' + 32 bits.
type BPC struct{}

// Name implements Compressor.
func (BPC) Name() string { return "bpc" }

const (
	bpcWords  = BlockSize / 4 // 16
	bpcDeltas = bpcWords - 1  // 15
	bpcPlanes = 33            // 33-bit two's-complement deltas
	planeMask = (1 << bpcDeltas) - 1
)

// bpcTransform returns the base word and the 33 DBX planes (index 32 is the
// most significant plane, left un-XORed).
func bpcTransform(block []byte) (base uint32, dbx [bpcPlanes]uint16, dbp [bpcPlanes]uint16) {
	var words [bpcWords]uint32
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(block[i*4:])
	}
	base = words[0]
	// Transpose by walking only each delta's set bits: small deltas, the
	// common case, touch a few planes instead of all 33.
	for i := 0; i < bpcDeltas; i++ {
		d := uint64(int64(words[i+1])-int64(words[i])) & ((1 << bpcPlanes) - 1) // 33-bit two's complement
		for ; d != 0; d &= d - 1 {
			dbp[bits.TrailingZeros64(d)] |= 1 << uint(i)
		}
	}
	for p := 0; p < bpcPlanes; p++ {
		if p == bpcPlanes-1 {
			dbx[p] = dbp[p]
		} else {
			dbx[p] = dbp[p] ^ dbp[p+1]
		}
	}
	return base, dbx, dbp
}

// onesPattern classifies a plane with exactly one or two-consecutive ones.
// Returns (kind, pos): kind 1 = single one, kind 2 = two consecutive ones,
// kind 0 = neither.
func onesPattern(p uint16) (int, int) {
	pos := bits.TrailingZeros16(p)
	switch p >> uint(pos) {
	case 1:
		return 1, pos
	case 3:
		if pos+1 < bpcDeltas {
			return 2, pos
		}
	}
	return 0, 0
}

// bpcSymbols selects the block's code words, one per run or plane, with
// each tag and its fields folded into one symbol.
func bpcSymbols(block []byte, s *symbols) {
	base, dbx, dbp := bpcTransform(block)
	if base == 0 {
		s.add(0, 1)
	} else {
		s.add(1<<32|uint64(base), 1+32)
	}
	// Encode planes from most significant (32) down to 0 so the decoder can
	// reconstruct DBP incrementally.
	for p := bpcPlanes - 1; p >= 0; {
		if dbx[p] == 0 {
			run := 1
			for p-run >= 0 && dbx[p-run] == 0 {
				run++
			}
			if run >= 2 {
				s.add(0b01<<6|uint64(run-2), 2+6)
			} else {
				s.add(0b001, 3)
			}
			p -= run
			continue
		}
		switch kind, pos := onesPattern(dbx[p]); {
		case dbx[p] == planeMask:
			s.add(0b00000, 5)
		case dbp[p] == 0:
			s.add(0b00001, 5)
		case kind == 2:
			s.add(0b00010<<4|uint64(pos), 5+4)
		case kind == 1:
			s.add(0b00011<<4|uint64(pos), 5+4)
		default:
			s.add(1<<bpcDeltas|uint64(dbx[p]), 1+bpcDeltas)
		}
		p--
	}
}

// CompressedSize implements Compressor.
func (BPC) CompressedSize(block []byte) int {
	checkBlock(block)
	var s symbols
	bpcSymbols(block, &s)
	return s.size()
}

// Compress implements Codec.
func (BPC) Compress(block []byte) ([]byte, bool) {
	checkBlock(block)
	var s symbols
	bpcSymbols(block, &s)
	return s.encode()
}

// Decompress implements Codec.
func (BPC) Decompress(enc []byte) ([]byte, error) {
	r := &bitReader{buf: enc}
	baseBit, ok := r.readBits(1)
	if !ok {
		return nil, fmt.Errorf("bpc: truncated base")
	}
	var base uint32
	if baseBit == 1 {
		v, ok := r.readBits(32)
		if !ok {
			return nil, fmt.Errorf("bpc: truncated base word")
		}
		base = uint32(v)
	}
	var dbp [bpcPlanes]uint16
	p := bpcPlanes - 1
	for p >= 0 {
		b, ok := r.readBits(1)
		if !ok {
			return nil, fmt.Errorf("bpc: truncated plane stream")
		}
		var dbx uint16
		if b == 1 { // uncompressed plane
			v, ok := r.readBits(bpcDeltas)
			if !ok {
				return nil, fmt.Errorf("bpc: truncated raw plane")
			}
			dbx = uint16(v)
		} else {
			b2, _ := r.readBits(1)
			if b2 == 1 { // 01: zero run
				runBits, ok := r.readBits(6)
				if !ok {
					return nil, fmt.Errorf("bpc: truncated run")
				}
				run := int(runBits) + 2
				for i := 0; i < run; i++ {
					if p < 0 {
						return nil, fmt.Errorf("bpc: run overflows planes")
					}
					setPlane(&dbp, p, 0)
					p--
				}
				continue
			}
			b3, _ := r.readBits(1)
			if b3 == 1 { // 001: single zero plane
				setPlane(&dbp, p, 0)
				p--
				continue
			}
			sub, ok := r.readBits(2)
			if !ok {
				return nil, fmt.Errorf("bpc: truncated symbol")
			}
			switch sub {
			case 0b00: // all ones
				dbx = planeMask
			case 0b01: // DBX != 0, DBP == 0: dbp[p] = 0 => dbx = dbp[p+1]
				if p == bpcPlanes-1 {
					return nil, fmt.Errorf("bpc: dbp-zero symbol on top plane")
				}
				dbx = dbp[p+1]
			case 0b10:
				pos, ok := r.readBits(4)
				if !ok {
					return nil, fmt.Errorf("bpc: truncated position")
				}
				dbx = 3 << uint(pos)
			case 0b11:
				pos, ok := r.readBits(4)
				if !ok {
					return nil, fmt.Errorf("bpc: truncated position")
				}
				dbx = 1 << uint(pos)
			}
		}
		setPlane(&dbp, p, dbx)
		p--
	}
	// Invert the transform.
	var deltas [bpcDeltas]uint64
	for pl := 0; pl < bpcPlanes; pl++ {
		for i := 0; i < bpcDeltas; i++ {
			deltas[i] |= uint64((dbp[pl]>>uint(i))&1) << uint(pl)
		}
	}
	out := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(out, base)
	cur := base
	for i := 0; i < bpcDeltas; i++ {
		// Sign-extend the 33-bit delta.
		d := int64(deltas[i]<<31) >> 31
		cur = uint32(int64(cur) + d)
		binary.LittleEndian.PutUint32(out[(i+1)*4:], cur)
	}
	return out, nil
}

// setPlane stores the DBX value for plane p, converting to DBP using the
// already-decoded plane above it.
func setPlane(dbp *[bpcPlanes]uint16, p int, dbx uint16) {
	if p == bpcPlanes-1 {
		dbp[p] = dbx
	} else {
		dbp[p] = dbx ^ dbp[p+1]
	}
}
