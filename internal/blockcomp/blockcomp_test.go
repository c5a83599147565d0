package blockcomp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func zeroBlockBytes() []byte { return make([]byte, BlockSize) }

func patternBlock(f func(i int) byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = f(i)
	}
	return b
}

// smallIntArray mimics an array of small 64-bit integers: very BDI-friendly.
func smallIntArray(base uint64) []byte {
	b := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i)*3)
	}
	return b
}

// pointerArray mimics 64-bit pointers into one region.
func pointerArray(rng *rand.Rand) []byte {
	b := make([]byte, BlockSize)
	base := uint64(0x7f1200000000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(rng.Intn(1<<20))*8)
	}
	return b
}

func randomBlock(rng *rand.Rand) []byte {
	b := make([]byte, BlockSize)
	rng.Read(b)
	return b
}

func TestZeroBlock(t *testing.T) {
	if got := (ZeroBlock{}).CompressedSize(zeroBlockBytes()); got != 1 {
		t.Errorf("zero block size = %d, want 1", got)
	}
	nz := zeroBlockBytes()
	nz[63] = 1
	if got := (ZeroBlock{}).CompressedSize(nz); got != BlockSize {
		t.Errorf("nonzero block size = %d, want %d", got, BlockSize)
	}
	enc, ok := ZeroBlock{}.Compress(zeroBlockBytes())
	if !ok {
		t.Fatal("zero block did not compress")
	}
	dec, err := ZeroBlock{}.Decompress(enc)
	if err != nil || !bytes.Equal(dec, zeroBlockBytes()) {
		t.Errorf("zero round trip failed: %v", err)
	}
}

func TestBDISmallIntegers(t *testing.T) {
	b := smallIntArray(1000)
	size := BDI{}.CompressedSize(b)
	// base8-delta1: 1 + 8 + 8 = 17 bytes.
	if size != 17 {
		t.Errorf("small-int BDI size = %d, want 17", size)
	}
}

func TestBDIRepeated(t *testing.T) {
	b := patternBlock(func(i int) byte {
		return []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04}[i%8]
	})
	if size := (BDI{}).CompressedSize(b); size != 9 {
		t.Errorf("repeated-value BDI size = %d, want 9", size)
	}
}

func TestBDIIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := randomBlock(rng)
	if size := (BDI{}).CompressedSize(b); size != BlockSize {
		t.Errorf("random block BDI size = %d, want %d", size, BlockSize)
	}
	_, ok := (BDI{}).Compress(b)
	if ok {
		t.Error("random block unexpectedly compressed")
	}
}

func roundTrip(t *testing.T, c Codec, block []byte) {
	t.Helper()
	enc, ok := c.Compress(block)
	if !ok {
		return // incompressible: hardware stores raw
	}
	if len(enc) > BlockSize {
		t.Fatalf("%s: encoding larger than block: %d", c.Name(), len(enc))
	}
	dec, err := c.Decompress(enc)
	if err != nil {
		t.Fatalf("%s: decompress error: %v", c.Name(), err)
	}
	if !bytes.Equal(dec, block) {
		t.Fatalf("%s: round trip mismatch\n in: %x\nout: %x", c.Name(), block, dec)
	}
}

func TestRoundTripCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	codecs := []Codec{ZeroBlock{}, BDI{}, CPack{}, BPC{}, FPC{}}
	var corpus [][]byte
	corpus = append(corpus, zeroBlockBytes(), smallIntArray(123456789))
	corpus = append(corpus, patternBlock(func(i int) byte { return byte(i) }))
	corpus = append(corpus, patternBlock(func(i int) byte { return 0xAA }))
	for i := 0; i < 200; i++ {
		corpus = append(corpus, pointerArray(rng), randomBlock(rng))
		// Sparse block: mostly zero with a few bytes set.
		sp := zeroBlockBytes()
		for j := 0; j < 3; j++ {
			sp[rng.Intn(BlockSize)] = byte(rng.Intn(256))
		}
		corpus = append(corpus, sp)
		// Float-ish data: shared exponents, noisy mantissas.
		fl := make([]byte, BlockSize)
		for j := 0; j < 16; j++ {
			binary.LittleEndian.PutUint32(fl[j*4:], 0x3f800000|uint32(rng.Intn(1<<18)))
		}
		corpus = append(corpus, fl)
	}
	for _, c := range codecs {
		for _, block := range corpus {
			roundTrip(t, c, block)
		}
	}
}

// Property: every codec's CompressedSize is consistent with Compress, and
// compressible encodings always round-trip, for arbitrary blocks.
func TestQuickRoundTrip(t *testing.T) {
	codecs := []Codec{BDI{}, CPack{}, BPC{}, FPC{}}
	for _, c := range codecs {
		c := c
		f := func(seed int64, kind uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			var block []byte
			switch kind % 4 {
			case 0:
				block = randomBlock(rng)
			case 1:
				block = smallIntArray(uint64(seed))
			case 2:
				block = pointerArray(rng)
			case 3:
				block = zeroBlockBytes()
				block[int(uint(seed)%BlockSize)] = byte(seed)
			}
			enc, ok := c.Compress(block)
			size := c.CompressedSize(block)
			if !ok {
				return size == BlockSize
			}
			if len(enc) > size {
				return false
			}
			dec, err := c.Decompress(enc)
			return err == nil && bytes.Equal(dec, block)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestBestPicksMinimum(t *testing.T) {
	best := NewBest()
	b := smallIntArray(5)
	want := BlockSize
	for _, c := range best.Children {
		if s := c.CompressedSize(b); s < want {
			want = s
		}
	}
	if got := best.CompressedSize(b); got != want {
		t.Errorf("best = %d, want %d", got, want)
	}
	if got := best.CompressedSize(zeroBlockBytes()); got != 1 {
		t.Errorf("best zero block = %d, want 1", got)
	}
}

func TestBestPageSizeSumsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	page := make([]byte, 0, 4*BlockSize)
	page = append(page, smallIntArray(7)...)
	page = append(page, zeroBlockBytes()...)
	page = append(page, pointerArray(rng)...)
	page = append(page, randomBlock(rng)...)
	best := NewBest()
	want := 0
	for off := 0; off < len(page); off += BlockSize {
		want += best.CompressedSize(page[off : off+BlockSize])
	}
	if got := best.PageSize(page); got != want {
		t.Errorf("PageSize = %d, want the block sum %d", got, want)
	}
}

// TestSizeOnlyPathsDoNotAllocate pins the size-only encoders at zero heap
// allocations: the size model calls them for every block of every sampled
// page.
func TestSizeOnlyPathsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blocks := [][]byte{smallIntArray(9), pointerArray(rng), randomBlock(rng), zeroBlockBytes()}
	for _, c := range []Compressor{BPC{}, CPack{}, NewBest()} {
		for _, b := range blocks {
			if n := testing.AllocsPerRun(100, func() { c.CompressedSize(b) }); n != 0 {
				t.Errorf("%s: CompressedSize allocates %.1f times per block", c.Name(), n)
			}
		}
	}
}

func TestCPackDictionaryReuse(t *testing.T) {
	// A block of 16 identical nonzero words: first is xxxx (34 bits), the
	// remaining 15 are mmmm (6 bits) -> 124 bits -> 16 bytes.
	b := patternBlock(func(i int) byte { return []byte{1, 2, 3, 4}[i%4] })
	if size := (CPack{}).CompressedSize(b); size != 16 {
		t.Errorf("cpack identical-words size = %d, want 16", size)
	}
}

func TestBPCLinearRamp(t *testing.T) {
	// Words with constant stride have constant deltas -> near-empty planes.
	b := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(1000+i*4))
	}
	size := BPC{}.CompressedSize(b)
	if size > 12 {
		t.Errorf("bpc linear ramp size = %d, want <= 12", size)
	}
	roundTrip(t, BPC{}, b)
}

func TestFPCPatterns(t *testing.T) {
	// Small signed integers: 3+4 bits per word -> ~14 bytes.
	b := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(i%8))
	}
	if size := (FPC{}).CompressedSize(b); size > 16 {
		t.Errorf("small-int FPC size = %d, want <= 16", size)
	}
	roundTrip(t, FPC{}, b)
	// Repeated-byte words.
	rb := patternBlock(func(i int) byte { return 0x5A })
	if size := (FPC{}).CompressedSize(rb); size > 24 {
		t.Errorf("repeated-byte FPC size = %d", size)
	}
	roundTrip(t, FPC{}, rb)
	// Zero runs collapse.
	if size := (FPC{}).CompressedSize(zeroBlockBytes()); size > 2 {
		t.Errorf("zero-block FPC size = %d", size)
	}
}

func BenchmarkBestOf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([][]byte, 64)
	for i := range blocks {
		switch i % 3 {
		case 0:
			blocks[i] = smallIntArray(uint64(i))
		case 1:
			blocks[i] = pointerArray(rng)
		default:
			blocks[i] = randomBlock(rng)
		}
	}
	best := NewBest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best.CompressedSize(blocks[i%len(blocks)])
	}
}
