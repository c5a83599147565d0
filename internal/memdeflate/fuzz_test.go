package memdeflate

import (
	"bytes"
	"testing"
)

// FuzzMemDeflateRoundTrip feeds arbitrary 4KB pages through the
// memory-specialized Deflate and asserts the paper's functional-verification
// property: whenever Compress accepts a page, the encoding beats the raw
// page size and Decompress reproduces the page bit-exactly, and the
// size-only CompressedSize reports the same PageStats as Compress, whose
// EncodedSize is the length of the encoding Compress emits.
func FuzzMemDeflateRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte("the quick brown fox "), 64))
	f.Add(bytes.Repeat([]byte{0xff, 0x00}, 512))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})

	codec := New(DefaultParams())
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, PageSize)
		// Tile the fuzz input across the page so short inputs still produce
		// structured (compressible) content alongside the zero-fill case.
		for off := 0; off < len(page) && len(data) > 0; off += len(data) {
			copy(page[off:], data)
		}
		enc, st, ok := codec.Compress(page)
		size, sizeSt := codec.CompressedSize(page)
		if sizeSt != st || size != st.EncodedSize {
			t.Fatalf("CompressedSize = %d, %+v; Compress gives %+v", size, sizeSt, st)
		}
		if !ok {
			if size < PageSize {
				t.Fatalf("Compress rejected page but CompressedSize=%d < %d", size, PageSize)
			}
			return
		}
		if len(enc) >= PageSize {
			t.Fatalf("accepted encoding is %dB, not smaller than the %dB page", len(enc), PageSize)
		}
		if size != len(enc) {
			t.Fatalf("CompressedSize=%d but Compress emitted %dB", size, len(enc))
		}
		if st.EncodedSize != len(enc) {
			t.Fatalf("PageStats.EncodedSize=%d but encoding is %dB", st.EncodedSize, len(enc))
		}
		dec, err := codec.Decompress(enc)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(dec, page) {
			t.Fatal("round trip mismatch")
		}
	})
}
