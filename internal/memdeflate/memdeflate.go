// Package memdeflate is the paper's memory-specialized ASIC Deflate
// (Section V-B): the 1KB-CAM LZ stage (package lz) followed by the reduced
// 16-leaf Huffman stage (package huffman), with the page-at-a-time pipeline
// organization of Figure 14 (LZ and Huffman work concurrently on two
// independent pages via the Accumulate/Replay buffers). It provides:
//
//   - a functional codec: Compress/Decompress round-trips 4KB pages
//     bit-exactly (the paper's RTL functional-verification experiment);
//   - a cycle model parameterized by the Figure 14 microarchitecture
//     (8 B/cycle LZ intake, tree build/write/read constants, bounded
//     Huffman encode/decode rates, 8 B/cycle LZ decode) at 2.5 GHz,
//     regenerating Table II;
//   - the synthesis constants of Table I (area/power cannot be measured
//     without an ASIC flow; they are carried verbatim and labeled as such).
//
// Page encoding (the framing is our design; the paper fixes the stages):
//
//	byte 0            flags: bit0 = Huffman used, bit1 = stored (no LZ gain)
//	bytes 1..2        LZ-output length, little endian
//	if Huffman used:  plain tree header ++ Huffman bitstream over LZ bytes
//	else:             raw LZ bytes
//
// Compress reports ok=false for pages whose encoding would not beat 4096
// bytes; the memory controller stores those raw and sets the CTE's
// isIncompressible bit.
package memdeflate

import (
	"fmt"

	"tmcc/internal/huffman"
	"tmcc/internal/lz"
	"tmcc/internal/obs"
)

// PageSize is the unit this ASIC compresses.
const PageSize = 4096

const (
	flagHuffman = 1 << 0
	flagStored  = 1 << 1
	flagFull    = 1 << 2 // general-purpose mode: full canonical tree
)

// Params selects the explored design-space point (Section V-B's tunables).
type Params struct {
	WindowSize   int  // LZ CAM size in bytes (256..4096; paper default 1024)
	MaxTreeDepth int  // Huffman depth threshold (default 8)
	DynamicSkip  bool // skip Huffman when it would expand (Section V-B1; +5% ratio)
	OnePointOne  bool // IBM-style 1.1-pass approximate frequency counting (released HDL supports it; off by default)
	// GeneralPurpose selects the design point the paper moves away from: a
	// full canonical Huffman tree over all 256 symbols, shipped compressed
	// (RLE'd code lengths). Ratio improves slightly; building and —
	// critically — serially restoring the tree costs the long setup (T0)
	// the paper identifies as IBM's bottleneck. The cycle model charges it.
	GeneralPurpose bool
	FreqGHz        float64
}

// DefaultParams is the configuration the paper converges on.
func DefaultParams() Params {
	return Params{
		WindowSize:   lz.DefaultWindow,
		MaxTreeDepth: huffman.DefaultMaxDepth,
		DynamicSkip:  false,
		FreqGHz:      2.5,
	}
}

// Codec compresses and decompresses 4KB pages. Not safe for concurrent use;
// each hardware module instance owns one.
type Codec struct {
	p  Params
	lz *lz.Compressor
	// lzBuf holds the current page's LZ output; no encoding aliases it, so
	// it is reused page to page.
	lzBuf []byte
	// Observability counters (nil when not observed).
	obsPages, obsStored, obsBytesOut *obs.Counter
}

// Observe registers lifetime compression counters under
// "codec.memdeflate."; a nil observer leaves the codec unobserved.
func (c *Codec) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	const p = "codec.memdeflate."
	c.obsPages = o.Counter(p + "pages")
	c.obsStored = o.Counter(p + "incompressible")
	c.obsBytesOut = o.Counter(p + "bytesOut")
}

// New returns a Codec for the given parameters.
func New(p Params) *Codec {
	if p.WindowSize == 0 {
		p.WindowSize = lz.DefaultWindow
	}
	if p.FreqGHz == 0 {
		p.FreqGHz = 2.5
	}
	return &Codec{p: p, lz: lz.New(p.WindowSize)}
}

// PageStats describes one page's trip through the pipeline; it feeds both
// the size accounting and the cycle model.
type PageStats struct {
	LZ          lz.Stats
	Huff        huffman.Stats
	HuffSkipped bool
	Stored      bool
	EncodedSize int
	// General-purpose mode extras: the full tree's leaf count and header
	// size drive the slow build/restore cycle costs.
	GeneralPurpose bool
	FullLeaves     int
	FullHeaderBits int
}

// Compress encodes a page (must be PageSize bytes). ok=false means the page
// is incompressible and should be stored raw.
func (c *Codec) Compress(page []byte) (enc []byte, st PageStats, ok bool) {
	lzOut := c.runLZ(page, &st)
	sample := c.sample(lzOut)
	var header, huffOut []byte
	if c.p.GeneralPurpose {
		table := huffman.AnalyzeFull(sample)
		st.GeneralPurpose = true
		st.FullLeaves = table.Leaves
		hdrBody := table.AppendCompressedHeader(nil)
		st.FullHeaderBits = len(hdrBody) * 8
		header = make([]byte, 0, 3+len(hdrBody))
		header = append(header, flagHuffman|flagFull, byte(len(lzOut)), byte(len(lzOut)>>8))
		header = append(header, hdrBody...)
		huffOut, st.Huff = table.Encode(nil, lzOut)
	} else {
		table := huffman.Analyze(sample, c.p.MaxTreeDepth)
		header = make([]byte, 0, 3+table.HeaderSize())
		header = append(header, flagHuffman, byte(len(lzOut)), byte(len(lzOut)>>8))
		header = table.AppendHeader(header)
		huffOut, st.Huff = table.Encode(nil, lzOut)
	}

	if c.skipHuffman(len(header)+len(huffOut), len(lzOut), &st) {
		enc = make([]byte, 0, 3+len(lzOut))
		enc = append(enc, 0, byte(len(lzOut)), byte(len(lzOut)>>8))
		enc = append(enc, lzOut...)
	} else {
		enc = append(header, huffOut...)
	}
	if !c.account(len(enc), &st) {
		return nil, st, false
	}
	return enc, st, true
}

// CompressedSize returns the encoded size Compress would produce
// (PageSize when incompressible) and the same PageStats, and bumps the
// same counters. On the reduced-tree path it emits nothing: the Huffman
// stream's length comes from Measure and the LZ output goes to a buffer
// the Codec reuses. General-purpose mode runs Compress.
func (c *Codec) CompressedSize(page []byte) (int, PageStats) {
	if c.p.GeneralPurpose {
		_, st, _ := c.Compress(page)
		return st.EncodedSize, st
	}
	var st PageStats
	lzOut := c.runLZ(page, &st)
	table := huffman.Analyze(c.sample(lzOut), c.p.MaxTreeDepth)
	st.Huff = table.Measure(lzOut)
	size := 3 + table.HeaderSize() + (st.Huff.OutputBits+7)/8
	if c.skipHuffman(size, len(lzOut), &st) {
		size = 3 + len(lzOut)
	}
	c.account(size, &st)
	return st.EncodedSize, st
}

// runLZ runs the LZ stage on page into the Codec's buffer.
func (c *Codec) runLZ(page []byte, st *PageStats) []byte {
	if len(page) != PageSize {
		panic(fmt.Sprintf("memdeflate: page must be %d bytes, got %d", PageSize, len(page)))
	}
	c.lzBuf, st.LZ = c.lz.Compress(c.lzBuf[:0], page)
	return c.lzBuf
}

// sample is the input of the frequency analysis over the LZ output. The
// 1.1-pass option samples only the first segment (IBM's approximation);
// the default analyzes the whole (accumulated) output, which is what the
// Accumulate/Replay pair buys (Section V-B3).
func (c *Codec) sample(lzOut []byte) []byte {
	if c.p.OnePointOne && len(lzOut) > 512 {
		return lzOut[:512]
	}
	return lzOut
}

// skipHuffman applies DynamicSkip: the page keeps its raw LZ bytes when
// the Huffman encoding (header included) would not be smaller.
func (c *Codec) skipHuffman(huffSize, lzLen int, st *PageStats) bool {
	st.HuffSkipped = c.p.DynamicSkip && huffSize >= 3+lzLen
	return st.HuffSkipped
}

// account records the page's encoded size — PageSize when it does not
// beat the raw page, which is then stored — and bumps the codec counters.
// It reports whether the page is stored compressed.
func (c *Codec) account(size int, st *PageStats) bool {
	c.obsPages.Inc()
	if size >= PageSize {
		st.Stored = true
		st.EncodedSize = PageSize
		c.obsStored.Inc()
		c.obsBytesOut.Add(PageSize)
		return false
	}
	st.EncodedSize = size
	c.obsBytesOut.Add(uint64(size))
	return true
}

// Decompress inverts Compress.
func (c *Codec) Decompress(enc []byte) ([]byte, error) {
	if len(enc) < 3 {
		return nil, fmt.Errorf("memdeflate: short encoding")
	}
	flags := enc[0]
	lzLen := int(enc[1]) | int(enc[2])<<8
	body := enc[3:]
	var lzOut []byte
	if flags&flagFull != 0 {
		table, n, err := huffman.ParseCompressedHeader(body)
		if err != nil {
			return nil, err
		}
		lzOut, err = table.Decode(body[n:], lzLen)
		if err != nil {
			return nil, err
		}
	} else if flags&flagHuffman != 0 {
		table, n, err := huffman.ParseHeader(body)
		if err != nil {
			return nil, err
		}
		lzOut, err = table.Decode(body[n:], lzLen)
		if err != nil {
			return nil, err
		}
	} else {
		if len(body) < lzLen {
			return nil, fmt.Errorf("memdeflate: truncated LZ body")
		}
		lzOut = body[:lzLen]
	}
	return lz.Decompress(lzOut, PageSize, c.p.WindowSize)
}

// Params returns the codec's configuration.
func (c *Codec) Params() Params { return c.p }
