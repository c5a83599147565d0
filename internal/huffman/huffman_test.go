package huffman

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func textLike(rng *rand.Rand, n int) []byte {
	// Zipfian-ish distribution over a small alphabet plus occasional rare
	// bytes, resembling LZ output over program data.
	out := make([]byte, n)
	hot := []byte("etaoin srdlu")
	for i := range out {
		switch r := rng.Intn(100); {
		case r < 80:
			out[i] = hot[rng.Intn(len(hot))]
		case r < 95:
			out[i] = byte('A' + rng.Intn(26))
		default:
			out[i] = byte(rng.Intn(256))
		}
	}
	return out
}

func roundTrip(t *testing.T, data []byte, depth int) (*Table, Stats) {
	t.Helper()
	table := Analyze(data, depth)
	var hdr []byte
	hdr = table.AppendHeader(hdr)
	if len(hdr) != table.HeaderSize() {
		t.Fatalf("header size %d != HeaderSize %d", len(hdr), table.HeaderSize())
	}
	enc, st := table.Encode(nil, data)
	parsed, n, err := ParseHeader(hdr)
	if err != nil {
		t.Fatalf("parse header: %v", err)
	}
	if n != len(hdr) {
		t.Fatalf("header consumed %d != %d", n, len(hdr))
	}
	dec, err := parsed.Decode(enc, len(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("round trip mismatch (%d bytes)", len(data))
	}
	return table, st
}

func TestRoundTripTextLike(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		data := textLike(rng, 1+rng.Intn(4096))
		table, st := roundTrip(t, data, 0)
		if table.NumLeaves() > MaxLeaves {
			t.Errorf("tree has %d leaves", table.NumLeaves())
		}
		if st.OutputBits <= 0 {
			t.Error("no output bits")
		}
	}
}

func TestRoundTripEdgeCases(t *testing.T) {
	cases := [][]byte{
		[]byte{0},
		bytes.Repeat([]byte{7}, 4096),         // single character
		[]byte{1, 2},                          // two characters
		bytes.Repeat([]byte{1, 2, 3, 4}, 100), // few characters
	}
	for _, data := range cases {
		roundTrip(t, data, 0)
	}
	// All 256 characters uniformly: nearly everything escape-coded.
	uniform := make([]byte, 4096)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	_, st := roundTrip(t, uniform, 0)
	if st.Escapes == 0 {
		t.Error("uniform data should use escapes")
	}
}

// TestMeasureMatchesEncode checks the histogram-based Measure against the
// stream Encode emits, byte by byte: the stats Encode reports, a per-byte
// count of code and escape bits, and the stream's padded length. The
// tables include ones built from a prefix sample (the 1.1-pass mode), so
// bytes outside the table are escape-coded.
func TestMeasureMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	corpus := [][]byte{
		{0},
		bytes.Repeat([]byte{7}, 4096),
		{1, 2},
		bytes.Repeat([]byte{1, 2, 3, 4}, 100),
	}
	uniform := make([]byte, 4096)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	corpus = append(corpus, uniform)
	for i := 0; i < 20; i++ {
		corpus = append(corpus, textLike(rng, 1+rng.Intn(4096)))
	}
	for ci, data := range corpus {
		for _, depth := range []int{4, 8, 12} {
			for _, sample := range [][]byte{data, data[:min(len(data), 64)]} {
				table := Analyze(sample, depth)
				got := table.Measure(data)
				enc, encSt := table.Encode(nil, data)
				want := Stats{InputBytes: len(data)}
				for _, b := range data {
					if idx := table.hot[b]; idx >= 0 {
						want.OutputBits += int(table.codes[idx].len)
					} else {
						want.OutputBits += int(table.codes[len(table.chars)].len) + 8
						want.Escapes++
					}
				}
				if got != want || encSt != want {
					t.Fatalf("corpus %d depth %d: Measure %+v, Encode %+v, per-byte count %+v", ci, depth, got, encSt, want)
				}
				if len(enc) != (got.OutputBits+7)/8 {
					t.Fatalf("corpus %d depth %d: stream is %dB, Measure gives %d bits", ci, depth, len(enc), got.OutputBits)
				}
			}
		}
	}
}

func TestDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, depth := range []int{4, 6, 8} {
		data := textLike(rng, 4096)
		table, _ := roundTrip(t, data, depth)
		if got := table.MaxCodeLen(); got > depth {
			t.Errorf("max code len %d exceeds limit %d", got, depth)
		}
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := textLike(rng, 4096)
	_, st := roundTrip(t, data, 0)
	if st.OutputBits >= len(data)*8 {
		t.Errorf("skewed data did not compress: %d bits for %d bytes", st.OutputBits, len(data))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := textLike(rng, 1+int(n)%4096)
		table := Analyze(data, 0)
		var hdr []byte
		hdr = table.AppendHeader(hdr)
		enc, _ := table.Encode(nil, data)
		parsed, _, err := ParseHeader(hdr)
		if err != nil {
			return false
		}
		dec, err := parsed.Decode(enc, len(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Kraft inequality must hold with equality for a full Huffman tree.
func TestKraft(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 10; i++ {
		data := textLike(rng, 2048)
		table := Analyze(data, 0)
		sum := 0.0
		for _, c := range table.codes {
			sum += 1 / float64(uint64(1)<<c.len)
		}
		if sum > 1.0001 {
			t.Errorf("Kraft sum %.4f > 1", sum)
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	if _, _, err := ParseHeader(nil); err == nil {
		t.Error("empty header accepted")
	}
	if _, _, err := ParseHeader([]byte{40}); err == nil {
		t.Error("oversized leaf count accepted")
	}
	if _, _, err := ParseHeader([]byte{16, 1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
}

func BenchmarkEncode4K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := textLike(rng, 4096)
	table := Analyze(data, 0)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Encode(nil, data)
	}
}

func BenchmarkDecode4K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := textLike(rng, 4096)
	table := Analyze(data, 0)
	enc, _ := table.Encode(nil, data)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.Decode(enc, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}
