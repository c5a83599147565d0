package memdeflate

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tmcc/internal/content"
	"tmcc/internal/ibmdeflate"
	"tmcc/internal/obs"
)

func TestRoundTripAllArchetypes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := New(DefaultParams())
	for a := content.Archetype(0); a < 10; a++ {
		for i := 0; i < 20; i++ {
			page := content.GeneratePage(a, rng)
			enc, st, ok := c.Compress(page)
			if !ok {
				if a != content.Random && a != content.HalfDirty && a != content.Floats {
					t.Errorf("%v page unexpectedly incompressible", a)
				}
				continue
			}
			if len(enc) != st.EncodedSize {
				t.Errorf("size mismatch: %d vs %d", len(enc), st.EncodedSize)
			}
			dec, err := c.Decompress(enc)
			if err != nil {
				t.Fatalf("%v: decompress: %v", a, err)
			}
			if !bytes.Equal(dec, page) {
				t.Fatalf("%v: round trip mismatch", a)
			}
		}
	}
}

// This mirrors the paper's RTL functional verification: every non-zero page
// in a synthetic dump must be identical after compress+decompress
// ("failed (pages) should read 0").
func TestFunctionalVerificationDump(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	gen := content.NewGenerator(content.Mix{
		content.SmallInts: 2, content.Pointers: 2, content.Text: 2,
		content.CSR: 2, content.Floats: 1, content.Random: 1,
		content.SparseZero: 1, content.HalfDirty: 1,
	}, 99)
	_ = rng
	c := New(DefaultParams())
	failed := 0
	for i := 0; i < 500; i++ {
		page := gen.Page()
		enc, _, ok := c.Compress(page)
		if !ok {
			continue
		}
		dec, err := c.Decompress(enc)
		if err != nil || !bytes.Equal(dec, page) {
			failed++
		}
	}
	if failed != 0 {
		t.Errorf("failed pages = %d, want 0", failed)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := New(DefaultParams())
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		page := content.GeneratePage(content.Archetype(kind%10), rng)
		enc, st, ok := c.Compress(page)
		if !ok {
			return st.EncodedSize == PageSize
		}
		dec, err := c.Decompress(enc)
		return err == nil && bytes.Equal(dec, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDynamicSkipNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	plain := New(DefaultParams())
	p := DefaultParams()
	p.DynamicSkip = true
	skip := New(p)
	for i := 0; i < 100; i++ {
		page := content.GeneratePage(content.Archetype(rng.Intn(10)), rng)
		s1, _ := plain.CompressedSize(page)
		s2, _ := skip.CompressedSize(page)
		if s2 > s1 {
			t.Fatalf("dynamic skip increased size: %d > %d", s2, s1)
		}
		if enc, _, ok := skip.Compress(page); ok {
			dec, err := skip.Decompress(enc)
			if err != nil || !bytes.Equal(dec, page) {
				t.Fatalf("skip round trip failed: %v", err)
			}
		}
	}
}

func TestWindowSweepRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, w := range []int{256, 512, 1024, 2048, 4096} {
		p := DefaultParams()
		p.WindowSize = w
		c := New(p)
		for i := 0; i < 10; i++ {
			page := content.GeneratePage(content.Text, rng)
			enc, _, ok := c.Compress(page)
			if !ok {
				t.Fatalf("text page incompressible at window %d", w)
			}
			dec, err := c.Decompress(enc)
			if err != nil || !bytes.Equal(dec, page) {
				t.Fatalf("window %d: round trip failed: %v", w, err)
			}
		}
	}
}

// Table II shape: our ASIC must beat the IBM model by severalfold on 4KB
// pages in every latency metric, and half-page latency must be well below
// full-page.
// TestCompressedSizeMatchesCompress pins the size-only path to the full
// encoder across the design space: for every tested parameter point and
// pages of every content profile, CompressedSize reports the PageStats
// Compress does and bumps the same codec counters.
func TestCompressedSizeMatchesCompress(t *testing.T) {
	var points []Params
	for _, w := range []int{256, 1024, 4096} {
		for _, d := range []int{4, 8, 12} {
			for _, skip := range []bool{false, true} {
				for _, one := range []bool{false, true} {
					p := DefaultParams()
					p.WindowSize, p.MaxTreeDepth, p.DynamicSkip, p.OnePointOne = w, d, skip, one
					points = append(points, p)
				}
			}
		}
	}
	gp := DefaultParams()
	gp.GeneralPurpose = true
	points = append(points, gp)

	var pages [][]byte
	for i, name := range content.Profiles() {
		prof, _ := content.ProfileFor(name)
		gen := prof.Generator(int64(40 + i))
		for j := 0; j < 3; j++ {
			pages = append(pages, gen.Page())
		}
	}
	for _, p := range points {
		full, sized := New(p), New(p)
		fullObs, sizedObs := obs.New(), obs.New()
		full.Observe(fullObs)
		sized.Observe(sizedObs)
		for i, page := range pages {
			_, want, _ := full.Compress(page)
			size, got := sized.CompressedSize(page)
			if got != want || size != want.EncodedSize {
				t.Fatalf("%+v page %d: CompressedSize = %d, %+v; Compress gives %+v", p, i, size, got, want)
			}
		}
		if got, want := sizedObs.Reg.Snapshot(), fullObs.Reg.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: counters %+v, Compress's %+v", p, got, want)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	c := New(DefaultParams())
	ibm := ibmdeflate.Default()
	var nPages int
	var sumDec, sumHalf, sumComp int64
	for i := 0; i < 100; i++ {
		page := content.GeneratePage(content.Archetype(1+rng.Intn(8)), rng)
		_, st, ok := c.Compress(page)
		if !ok {
			continue
		}
		tm := c.Timing(st)
		sumDec += int64(tm.DecompressLatency)
		sumHalf += int64(tm.HalfPageLatency)
		sumComp += int64(tm.CompressLatency)
		nPages++
	}
	avgDec := float64(sumDec) / float64(nPages) / 1000 // ns
	avgHalf := float64(sumHalf) / float64(nPages) / 1000
	avgComp := float64(sumComp) / float64(nPages) / 1000
	ibmDec := float64(ibm.DecompressLatency(PageSize)) / 1000
	ibmComp := float64(ibm.CompressLatency(PageSize)) / 1000

	if avgDec <= 0 || avgDec > ibmDec/2.5 {
		t.Errorf("avg decompress %.0f ns not clearly faster than IBM %.0f ns", avgDec, ibmDec)
	}
	if avgComp > ibmComp {
		t.Errorf("avg compress %.0f ns slower than IBM %.0f ns", avgComp, ibmComp)
	}
	if avgHalf >= avgDec {
		t.Errorf("half-page %.0f ns >= full-page %.0f ns", avgHalf, avgDec)
	}
	t.Logf("ours: comp %.0f ns, dec %.0f ns, half %.0f ns; IBM: comp %.0f, dec %.0f",
		avgComp, avgDec, avgHalf, ibmComp, ibmDec)
}

func TestTableIConstants(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("TableI rows = %d, want 5", len(rows))
	}
	var sumArea float64
	for _, r := range rows[:4] {
		sumArea += r.AreaMM2
	}
	if rows[4].AreaMM2 < sumArea {
		t.Errorf("complete unit area %.3f < module sum %.3f", rows[4].AreaMM2, sumArea)
	}
}

func TestIBMModelMatchesPaper(t *testing.T) {
	m := ibmdeflate.Default()
	if got := float64(m.DecompressLatency(4096)) / 1000; got < 1050 || got > 1150 {
		t.Errorf("IBM 4KB decompress = %.0f ns, want ~1100", got)
	}
	if got := float64(m.CompressLatency(4096)) / 1000; got < 1000 || got > 1100 {
		t.Errorf("IBM 4KB compress = %.0f ns, want ~1050", got)
	}
	if got := m.DecompressThroughputGBs(4096); got < 3.4 || got > 4.0 {
		t.Errorf("IBM 4KB decompress throughput = %.1f GB/s, want ~3.7", got)
	}
}

func BenchmarkCompress4K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pages := make([][]byte, 16)
	for i := range pages {
		pages[i] = content.GeneratePage(content.Archetype(1+i%8), rng)
	}
	c := New(DefaultParams())
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(pages[i%len(pages)])
	}
}

func BenchmarkDecompress4K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := New(DefaultParams())
	var encs [][]byte
	for i := 0; len(encs) < 8; i++ {
		page := content.GeneratePage(content.Archetype(1+i%8), rng)
		if enc, _, ok := c.Compress(page); ok {
			encs = append(encs, enc)
		}
	}
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}
