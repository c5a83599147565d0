package blockcomp

import (
	"encoding/binary"
	"fmt"
)

// CPack implements Cache Packer (Chen et al., TVLSI 2010) for 64-byte
// blocks: a pattern-matching scheme over 4-byte words with a 16-entry
// FIFO dictionary. Pattern codes (MSB-first):
//
//	00            zzzz  all-zero word            (2 bits)
//	01 + 32b      xxxx  uncompressed word        (34 bits, word -> dict)
//	10 + 4b       mmmm  full dictionary match    (6 bits)
//	1100 + 4b+16b mmxx  upper-half match         (24 bits, word -> dict)
//	1101 + 8b     zzzx  zero except low byte     (12 bits)
//	1110 + 4b+8b  mmmx  upper-3-byte match       (16 bits, word -> dict)
type CPack struct{}

// Name implements Compressor.
func (CPack) Name() string { return "cpack" }

const cpackDictSize = 16

type cpackDict struct {
	entries [cpackDictSize]uint32
	n       int // filled entries
	next    int // FIFO insert position
}

func (d *cpackDict) push(w uint32) {
	d.entries[d.next] = w
	d.next = (d.next + 1) % cpackDictSize
	if d.n < cpackDictSize {
		d.n++
	}
}

// match returns the best dictionary match class for w:
// 3 = full, 2 = upper 3 bytes, 1 = upper 2 bytes, 0 = none, with the index.
func (d *cpackDict) match(w uint32) (class, idx int) {
	for i := 0; i < d.n; i++ {
		e := d.entries[i]
		switch {
		case e == w:
			return 3, i
		case class < 2 && e>>8 == w>>8:
			class, idx = 2, i
		case class < 1 && e>>16 == w>>16:
			class, idx = 1, i
		}
	}
	return class, idx
}

// cpackSymbols selects one code word per 4-byte word, tag and fields
// folded together, updating the dictionary as the hardware does.
func cpackSymbols(block []byte, s *symbols) {
	var dict cpackDict
	for i := 0; i < BlockSize; i += 4 {
		word := binary.LittleEndian.Uint32(block[i:])
		switch class, idx := dict.match(word); {
		case word == 0:
			s.add(0b00, 2)
		case word>>8 == 0:
			s.add(0b1101<<8|uint64(word&0xff), 4+8)
		case class == 3:
			s.add(0b10<<4|uint64(idx), 2+4)
		case class == 2:
			s.add(0b1110<<12|uint64(idx)<<8|uint64(word&0xff), 4+4+8)
			dict.push(word)
		case class == 1:
			s.add(0b1100<<20|uint64(idx)<<16|uint64(word&0xffff), 4+4+16)
			dict.push(word)
		default:
			s.add(0b01<<32|uint64(word), 2+32)
			dict.push(word)
		}
	}
}

// CompressedSize implements Compressor.
func (CPack) CompressedSize(block []byte) int {
	checkBlock(block)
	var s symbols
	cpackSymbols(block, &s)
	return s.size()
}

// Compress implements Codec.
func (CPack) Compress(block []byte) ([]byte, bool) {
	checkBlock(block)
	var s symbols
	cpackSymbols(block, &s)
	return s.encode()
}

// Decompress implements Codec.
func (CPack) Decompress(enc []byte) ([]byte, error) {
	var dict cpackDict
	r := &bitReader{buf: enc}
	out := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 4 {
		var word uint32
		tag, ok := r.readBits(2)
		if !ok {
			return nil, fmt.Errorf("cpack: truncated stream")
		}
		switch tag {
		case 0b00:
			word = 0
		case 0b01:
			v, ok := r.readBits(32)
			if !ok {
				return nil, fmt.Errorf("cpack: truncated xxxx")
			}
			word = uint32(v)
			dict.push(word)
		case 0b10:
			idx, ok := r.readBits(4)
			if !ok {
				return nil, fmt.Errorf("cpack: truncated mmmm")
			}
			word = dict.entries[idx]
		case 0b11:
			sub, ok := r.readBits(2)
			if !ok {
				return nil, fmt.Errorf("cpack: truncated subtag")
			}
			switch sub {
			case 0b00: // mmxx
				idx, _ := r.readBits(4)
				low, ok := r.readBits(16)
				if !ok {
					return nil, fmt.Errorf("cpack: truncated mmxx")
				}
				word = dict.entries[idx]&0xffff0000 | uint32(low)
				dict.push(word)
			case 0b01: // zzzx
				low, ok := r.readBits(8)
				if !ok {
					return nil, fmt.Errorf("cpack: truncated zzzx")
				}
				word = uint32(low)
			case 0b10: // mmmx
				idx, _ := r.readBits(4)
				low, ok := r.readBits(8)
				if !ok {
					return nil, fmt.Errorf("cpack: truncated mmmx")
				}
				word = dict.entries[idx]&0xffffff00 | uint32(low)
				dict.push(word)
			default:
				return nil, fmt.Errorf("cpack: bad subtag")
			}
		}
		binary.LittleEndian.PutUint32(out[i:], word)
	}
	return out, nil
}
