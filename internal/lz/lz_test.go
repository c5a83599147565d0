package lz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tmcc/internal/config"
	"tmcc/internal/content"
)

func roundTrip(t *testing.T, c *Compressor, src []byte) Stats {
	t.Helper()
	enc, st := c.Compress(nil, src)
	if st.OutputBytes != len(enc) {
		t.Fatalf("stats output %d != len %d", st.OutputBytes, len(enc))
	}
	dec, err := Decompress(enc, len(src), c.Window())
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch")
	}
	return st
}

func TestRoundTripArchetypes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New(DefaultWindow)
	for a := content.Archetype(0); a < 10; a++ {
		for i := 0; i < 10; i++ {
			page := content.GeneratePage(a, rng)
			st := roundTrip(t, c, page)
			if a == content.Zero && st.OutputBytes > 200 {
				t.Errorf("zero page LZ output %d, want small", st.OutputBytes)
			}
		}
	}
}

func TestRoundTripWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, w := range []int{256, 512, 1024, 2048, 4096} {
		c := New(w)
		for i := 0; i < 20; i++ {
			page := content.GeneratePage(content.Archetype(rng.Intn(10)), rng)
			roundTrip(t, c, page)
		}
	}
}

func TestShortInputs(t *testing.T) {
	c := New(DefaultWindow)
	for _, src := range [][]byte{{}, {1}, {1, 2}, {1, 2, 3}, []byte("abcabcabcabc")} {
		roundTrip(t, c, src)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := New(DefaultWindow)
	f := func(seed int64, kind uint8, length uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		page := content.GeneratePage(content.Archetype(kind%10), rng)
		n := int(length) % (len(page) + 1)
		src := page[:n]
		enc, _ := c.Compress(nil, src)
		dec, err := Decompress(enc, len(src), c.Window())
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressionIsEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := New(DefaultWindow)
	// Text pages should compress well below half under LZ alone.
	var in, out int
	for i := 0; i < 50; i++ {
		page := content.GeneratePage(content.Text, rng)
		_, st := c.Compress(nil, page)
		in += st.InputBytes
		out += st.OutputBytes
	}
	if ratio := float64(in) / float64(out); ratio < 2 {
		t.Errorf("text LZ ratio = %.2f, want >= 2", ratio)
	}
	// Random pages should expand by at most the mask overhead (12.5%).
	page := content.GeneratePage(content.Random, rng)
	_, st := c.Compress(nil, page)
	if st.OutputBytes > st.InputBytes*9/8+8 {
		t.Errorf("random page expanded to %d", st.OutputBytes)
	}
}

func TestWindowRespected(t *testing.T) {
	// A repeat at distance > window must not be matched.
	src := make([]byte, 3000)
	copy(src, []byte("abcdefghijklmnopqrstuvwxyz012345"))
	copy(src[2500:], []byte("abcdefghijklmnopqrstuvwxyz012345"))
	c := New(1024)
	enc, _ := c.Compress(nil, src)
	dec, err := Decompress(enc, len(src), 1024)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestStatsCoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := New(DefaultWindow)
	page := content.GeneratePage(content.Text, rng)
	_, st := c.Compress(nil, page)
	if st.Literals+st.MatchedIn != st.InputBytes {
		t.Errorf("literals %d + matched %d != input %d", st.Literals, st.MatchedIn, st.InputBytes)
	}
	if st.CopyCycles < st.Matches {
		t.Errorf("copy cycles %d < matches %d", st.CopyCycles, st.Matches)
	}
}

func BenchmarkCompressPage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pages := make([][]byte, 16)
	for i := range pages {
		pages[i] = content.GeneratePage(content.Archetype(i%10), rng)
	}
	c := New(DefaultWindow)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(nil, pages[i%len(pages)])
	}
}

// refCompress is Compress before its chain search was pruned: it measures
// every candidate of the hash chain with matchLen. It keeps its own chain
// tables, fresh for each call, and reads only c's window geometry. It is
// the oracle for the pruned search, which must emit the same bytes and
// Stats.
func (c *Compressor) refCompress(dst, src []byte) ([]byte, Stats) {
	if len(src) > config.PageSize {
		panic("lz: input larger than a page")
	}
	var st Stats
	st.InputBytes = len(src)
	startLen := len(dst)

	type token struct {
		lit     byte
		off     int // 0 for literal
		matchLn int
	}
	var group [8]token
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		var mask byte
		for i := 0; i < n; i++ {
			if group[i].off != 0 {
				mask |= 1 << uint(i)
			}
		}
		dst = append(dst, mask)
		for i := 0; i < n; i++ {
			t := group[i]
			if t.off == 0 {
				dst = append(dst, t.lit)
			} else {
				v := uint16(t.off-1) | uint16(t.matchLn-MinMatch)<<c.offBits
				dst = append(dst, byte(v), byte(v>>8))
			}
		}
		n = 0
	}
	emit := func(t token) {
		group[n] = t
		n++
		if n == 8 {
			flush()
		}
	}
	head := make([]int32, 1<<14)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, config.PageSize)
	insert := func(pos int) {
		if pos+MinMatch <= len(src) {
			h := hash3(src[pos:])
			prev[pos] = head[h]
			head[h] = int32(pos)
		}
	}
	headAt := func(h uint32) int32 { return head[h] }

	pos := 0
	for pos < len(src) {
		bestLen, bestOff := 0, 0
		if pos+MinMatch <= len(src) {
			h := hash3(src[pos:])
			limit := pos - c.window
			for cand := headAt(h); cand >= 0 && int(cand) >= limit; cand = prev[cand] {
				l := c.matchLen(src, int(cand), pos)
				if l > bestLen {
					bestLen, bestOff = l, pos-int(cand)
					if l >= c.maxMatch {
						break
					}
				}
			}
		}
		if bestLen >= MinMatch {
			emit(token{off: bestOff, matchLn: bestLen})
			st.Matches++
			st.MatchedIn += bestLen
			st.CopyCycles += (bestLen + 7) / 8
			for j := 0; j < bestLen; j++ {
				insert(pos + j)
			}
			pos += bestLen
		} else {
			emit(token{lit: src[pos]})
			st.Literals++
			insert(pos)
			pos++
		}
	}
	flush()
	st.OutputBytes = len(dst) - startLen
	return dst, st
}

// windows are the CAM sizes New accepts.
var windows = []int{256, 512, 1024, 2048, 4096}

// matchRef compresses src with got and with ref (separate compressors of
// one window, each reused across calls) and fails on any difference in
// the output bytes or the Stats.
func matchRef(t *testing.T, got, ref *Compressor, src []byte, what string) {
	t.Helper()
	enc, st := got.Compress(nil, src)
	want, wantSt := ref.refCompress(nil, src)
	if !bytes.Equal(enc, want) {
		i := 0
		for i < len(enc) && i < len(want) && enc[i] == want[i] {
			i++
		}
		t.Fatalf("%s window %d len %d: output differs from the reference at byte %d (len %d vs %d)",
			what, got.Window(), len(src), i, len(enc), len(want))
	}
	if st != wantSt {
		t.Fatalf("%s window %d len %d: stats %+v, reference %+v", what, got.Window(), len(src), st, wantSt)
	}
}

// TestCompressMatchesReference checks the pruned chain search against
// the exhaustive one on every content archetype at every window, on full
// pages and on truncated ones (whose matches run into the end of src).
func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, w := range windows {
		got, ref := New(w), New(w)
		for a := content.Zero; a <= content.RepeatedStructs; a++ {
			for i := 0; i < 6; i++ {
				page := content.GeneratePage(a, rng)
				matchRef(t, got, ref, page, a.String())
				matchRef(t, got, ref, page[:rng.Intn(len(page)+1)], a.String())
			}
		}
		// Runs longer than the longest match, which stop the chain walk.
		matchRef(t, got, ref, bytes.Repeat([]byte{9}, config.PageSize), "run")
		matchRef(t, got, ref, bytes.Repeat([]byte("ab"), config.PageSize/2), "period-2")
	}
}

// FuzzLZMatchesReference compares the pruned and exhaustive chain
// searches on arbitrary inputs up to a page, at the window the first
// byte selects.
func FuzzLZMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for a := content.Zero; a <= content.RepeatedStructs; a++ {
		f.Add(byte(a), content.GeneratePage(a, rng)[:512])
	}
	f.Add(byte(0), []byte("abcabcabcabcabcabcabd"))
	f.Add(byte(4), bytes.Repeat([]byte{0, 0, 1}, 700))
	f.Fuzz(func(t *testing.T, sel byte, src []byte) {
		if len(src) > config.PageSize {
			src = src[:config.PageSize]
		}
		w := windows[int(sel)%len(windows)]
		matchRef(t, New(w), New(w), src, "fuzz")
	})
}
