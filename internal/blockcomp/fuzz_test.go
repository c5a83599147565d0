package blockcomp

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBlockCompRoundTrip drives every 64B codec over arbitrary blocks and
// asserts the properties the simulator's capacity accounting relies on:
// a successful Compress always round-trips bit-exactly through Decompress,
// the encoding is never larger than the raw block, and CompressedSize —
// the number the size models feed into capacity results, computed
// without building the encoding — equals the length Compress emits, or
// BlockSize when Compress stores the block raw.
func FuzzBlockCompRoundTrip(f *testing.F) {
	f.Add(make([]byte, BlockSize))
	f.Add(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, BlockSize/8))
	small := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(small[i*8:], 1000+uint64(i)*3)
	}
	f.Add(small)
	f.Add([]byte{7})

	codecs := []Codec{ZeroBlock{}, BDI{}, FPC{}, BPC{}, CPack{}}
	f.Fuzz(func(t *testing.T, data []byte) {
		block := make([]byte, BlockSize)
		copy(block, data)
		for _, c := range codecs {
			size := c.CompressedSize(block)
			if size < 1 || size > BlockSize {
				t.Fatalf("%s: CompressedSize=%d outside [1, %d]", c.Name(), size, BlockSize)
			}
			enc, ok := c.Compress(block)
			if !ok {
				if size != BlockSize {
					t.Fatalf("%s: Compress stores the block raw but CompressedSize=%d", c.Name(), size)
				}
				continue
			}
			if size != len(enc) {
				t.Fatalf("%s: CompressedSize=%d but Compress emitted %dB", c.Name(), size, len(enc))
			}
			if len(enc) > BlockSize {
				t.Fatalf("%s: encoding %dB exceeds the raw block", c.Name(), len(enc))
			}
			dec, err := c.Decompress(enc)
			if err != nil {
				t.Fatalf("%s: decompress: %v", c.Name(), err)
			}
			if !bytes.Equal(dec, block) {
				t.Fatalf("%s: round trip mismatch\n in: %x\nout: %x", c.Name(), block, dec)
			}
		}
	})
}
