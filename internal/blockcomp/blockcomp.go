// Package blockcomp implements the 64-byte block compressors used by
// Compresso and by the paper's Figure 15 block-level baseline: BDI
// (base-delta-immediate), CPack, BPC (bit-plane compression), and zero-block
// detection, plus a "best-of" composite that picks the smallest encoding —
// exactly what the paper models ("the smallest output between BPC, BDI,
// Cpack, and Zero Block").
package blockcomp

import "fmt"

// BlockSize is the fixed input granularity of every compressor here.
const BlockSize = 64

// wordBytes is the 64-bit word size several compressors scan by;
// bitsPerByte rounds bit-exact encodings up to whole bytes.
const (
	wordBytes   = 8
	bitsPerByte = 8
)

// Compressor compresses one 64-byte memory block.
type Compressor interface {
	// Name identifies the algorithm in reports.
	Name() string
	// CompressedSize returns the size in bytes of block's encoding under
	// this algorithm (including any metadata the hardware would store),
	// capped at BlockSize for incompressible blocks.
	CompressedSize(block []byte) int
}

// Codec is a Compressor that can also round-trip data; used by tests to
// prove the size accounting corresponds to a real, decodable encoding.
type Codec interface {
	Compressor
	// Compress returns the encoded form. If the block is incompressible it
	// returns nil and ok=false (hardware stores it raw).
	Compress(block []byte) (enc []byte, ok bool)
	// Decompress inverts Compress.
	Decompress(enc []byte) ([]byte, error)
}

func checkBlock(block []byte) {
	if len(block) != BlockSize {
		panic(fmt.Sprintf("blockcomp: block must be %d bytes, got %d", BlockSize, len(block)))
	}
}

// Best is the composite compressor: the smallest of its children. The
// hardware would also store a 2-bit scheme selector per block; that is not
// charged here, so a block costs exactly its winning child's encoding
// (EXPERIMENTS.md lists the gap among the known deviations).
type Best struct {
	Children []Compressor
}

// NewBest returns the paper's composite: min(BDI, BPC, CPack, ZeroBlock).
func NewBest() *Best {
	return &Best{Children: []Compressor{ZeroBlock{}, BDI{}, CPack{}, BPC{}}}
}

// Name implements Compressor.
func (b *Best) Name() string { return "best-of" }

// CompressedSize implements Compressor: minimum across children. Probing
// stops at 1 byte, the zero tag, which no encoding beats.
func (b *Best) CompressedSize(block []byte) int {
	checkBlock(block)
	best := BlockSize
	for _, c := range b.Children {
		if s := c.CompressedSize(block); s < best {
			best = s
			if best == 1 {
				break
			}
		}
	}
	return best
}

// PageSize returns the block-compressed size of page, the sum of
// CompressedSize over its BlockSize blocks. len(page) must be a multiple
// of BlockSize.
func (b *Best) PageSize(page []byte) int {
	size := 0
	for off := 0; off < len(page); off += BlockSize {
		size += b.CompressedSize(page[off : off+BlockSize])
	}
	return size
}

// ZeroBlock detects all-zero blocks, which compress to a 1-byte tag.
type ZeroBlock struct{}

// Name implements Compressor.
func (ZeroBlock) Name() string { return "zero" }

// CompressedSize implements Compressor.
func (ZeroBlock) CompressedSize(block []byte) int {
	checkBlock(block)
	for _, v := range block {
		if v != 0 {
			return BlockSize
		}
	}
	return 1
}

// Compress implements Codec.
func (z ZeroBlock) Compress(block []byte) ([]byte, bool) {
	if z.CompressedSize(block) == BlockSize {
		return nil, false
	}
	return []byte{0}, true
}

// Decompress implements Codec.
func (ZeroBlock) Decompress(enc []byte) ([]byte, error) {
	if len(enc) != 1 || enc[0] != 0 {
		return nil, fmt.Errorf("zeroblock: bad encoding")
	}
	return make([]byte, BlockSize), nil
}
