package blockcomp

import (
	"encoding/binary"
	"fmt"
)

// FPC implements Frequent Pattern Compression (Alameldeen & Wood, 2004)
// for 64-byte blocks: each 32-bit word is coded with a 3-bit prefix
// selecting one of eight patterns. It is not part of the paper's composite
// (which models BDI/BPC/CPack/Zero), but it is the other classic block
// compressor the literature compares against, so the repo carries it for
// ablation use.
//
//	000  zero word (run length 1..8 in 3 bits)
//	001  4-bit sign-extended            (3+4)
//	010  8-bit sign-extended            (3+8)
//	011  16-bit sign-extended           (3+16)
//	100  16-bit padded with zeros (low half zero) (3+16)
//	101  two halfwords, each 8-bit sign-extended  (3+16)
//	110  word with repeated bytes       (3+8)
//	111  uncompressed                   (3+32)
type FPC struct{}

// Name implements Compressor.
func (FPC) Name() string { return "fpc" }

func fitsSigned32(v uint32, bits uint) bool {
	s := int32(v)
	lim := int32(1) << (bits - 1)
	return s >= -lim && s < lim
}

// fpcSymbols selects one code word per word or zero run, prefix and
// fields folded together.
func fpcSymbols(block []byte, s *symbols) {
	var words [16]uint32
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(block[i*4:])
	}
	for i := 0; i < 16; {
		v := words[i]
		if v == 0 {
			run := 1
			for i+run < 16 && words[i+run] == 0 && run < 8 {
				run++
			}
			s.add(0b000<<3|uint64(run-1), 3+3)
			i += run
			continue
		}
		switch {
		case fitsSigned32(v, 4):
			s.add(0b001<<4|uint64(v&0xf), 3+4)
		case fitsSigned32(v, 8):
			s.add(0b010<<8|uint64(v&0xff), 3+8)
		case fitsSigned32(v, 16):
			s.add(0b011<<16|uint64(v&0xffff), 3+16)
		case v&0xffff == 0:
			s.add(0b100<<16|uint64(v>>16), 3+16)
		case fitsSigned32(v&0xffff, 8) && fitsSigned32(v>>16, 8):
			s.add(0b101<<16|uint64(v>>16&0xff)<<8|uint64(v&0xff), 3+8+8)
		case byte(v) == byte(v>>8) && byte(v) == byte(v>>16) && byte(v) == byte(v>>24):
			s.add(0b110<<8|uint64(v&0xff), 3+8)
		default:
			s.add(0b111<<32|uint64(v), 3+32)
		}
		i++
	}
}

// CompressedSize implements Compressor.
func (FPC) CompressedSize(block []byte) int {
	checkBlock(block)
	var s symbols
	fpcSymbols(block, &s)
	return s.size()
}

// Compress implements Codec.
func (FPC) Compress(block []byte) ([]byte, bool) {
	checkBlock(block)
	var s symbols
	fpcSymbols(block, &s)
	return s.encode()
}

// Decompress implements Codec.
func (FPC) Decompress(enc []byte) ([]byte, error) {
	r := &bitReader{buf: enc}
	out := make([]byte, BlockSize)
	signExtend := func(v uint64, bits uint) uint32 {
		shift := 32 - bits
		return uint32(int32(uint32(v)<<shift) >> shift)
	}
	for i := 0; i < 16; {
		tag, ok := r.readBits(3)
		if !ok {
			return nil, fmt.Errorf("fpc: truncated stream")
		}
		var v uint32
		switch tag {
		case 0b000:
			run, ok := r.readBits(3)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated zero run")
			}
			n := int(run) + 1
			if i+n > 16 {
				return nil, fmt.Errorf("fpc: zero run overflow")
			}
			i += n
			continue
		case 0b001:
			b, ok := r.readBits(4)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = signExtend(b, 4)
		case 0b010:
			b, ok := r.readBits(8)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = signExtend(b, 8)
		case 0b011:
			b, ok := r.readBits(16)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = signExtend(b, 16)
		case 0b100:
			b, ok := r.readBits(16)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = uint32(b) << 16
		case 0b101:
			hi, ok1 := r.readBits(8)
			lo, ok2 := r.readBits(8)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = signExtend(hi, 8)<<16 | signExtend(lo, 8)&0xffff
		case 0b110:
			b, ok := r.readBits(8)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = uint32(b) * 0x01010101
		case 0b111:
			b, ok := r.readBits(32)
			if !ok {
				return nil, fmt.Errorf("fpc: truncated")
			}
			v = uint32(b)
		}
		binary.LittleEndian.PutUint32(out[i*4:], v)
		i++
	}
	return out, nil
}
