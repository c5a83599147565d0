package content

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratePageDeterministic(t *testing.T) {
	for a := Archetype(0); a < nArchetypes; a++ {
		p1 := GeneratePage(a, rand.New(rand.NewSource(1)))
		p2 := GeneratePage(a, rand.New(rand.NewSource(1)))
		if len(p1) != PageSize || len(p2) != PageSize {
			t.Fatalf("%v: wrong page size", a)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%v: not deterministic at byte %d", a, i)
			}
		}
	}
}

func TestZeroPageIsZero(t *testing.T) {
	p := GeneratePage(Zero, rand.New(rand.NewSource(3)))
	for i, b := range p {
		if b != 0 {
			t.Fatalf("zero page has nonzero byte at %d", i)
		}
	}
}

func TestGeneratorMixCoverage(t *testing.T) {
	g := NewGenerator(Mix{SmallInts: 1, Random: 1}, 7)
	for i := 0; i < 50; i++ {
		if len(g.Page()) != PageSize {
			t.Fatal("bad page size")
		}
	}
}

func TestGeneratorEmptyMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty mix did not panic")
		}
	}()
	NewGenerator(Mix{}, 1)
}

func TestProfilesComplete(t *testing.T) {
	// Every performance benchmark the paper evaluates must have a profile.
	names := []string{
		"pageRank", "graphCol", "connComp", "degCentr", "shortestPath",
		"bfs", "dfs", "kcore", "triCount", "mcf", "omnetpp", "canneal",
	}
	for _, n := range names {
		p, ok := ProfileFor(n)
		if !ok {
			t.Errorf("missing profile %q", n)
			continue
		}
		if p.WantDeflateRatio <= 1 || p.WantBlockRatio < 1 {
			t.Errorf("%s: implausible targets %+v", n, p)
		}
		if p.ZeroFraction < 0 || p.ZeroFraction > 0.5 {
			t.Errorf("%s: zero fraction %f out of range", n, p.ZeroFraction)
		}
	}
	if _, ok := ProfileFor("nope"); ok {
		t.Error("unknown profile resolved")
	}
}

// Property: any archetype value produces a full page without panicking.
func TestQuickAnyArchetype(t *testing.T) {
	f := func(kind uint8, seed int64) bool {
		a := Archetype(int(kind) % int(nArchetypes))
		p := GeneratePage(a, rand.New(rand.NewSource(seed)))
		return len(p) == PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepeatedStructsBlockHostile(t *testing.T) {
	// Each 64B block of a RepeatedStructs page should look random in
	// isolation: high byte diversity within most blocks.
	rng := rand.New(rand.NewSource(9))
	p := GeneratePage(RepeatedStructs, rng)
	diverse := 0
	for b := 0; b < PageSize; b += 64 {
		seen := map[byte]bool{}
		for _, v := range p[b : b+64] {
			seen[v] = true
		}
		if len(seen) > 40 {
			diverse++
		}
	}
	if diverse < 48 { // 3/4 of the 64 blocks
		t.Errorf("only %d/64 blocks look high-entropy", diverse)
	}
}

// TestEqualKeysGenerateIdenticalPages guards the assumption the size
// model's memo rests on: profiles with equal Keys produce byte-identical
// page streams for every seed, so a model sampled for one serves all.
func TestEqualKeysGenerateIdenticalPages(t *testing.T) {
	names := Profiles()
	pairs := 0
	for i, a := range names {
		pa, _ := ProfileFor(a)
		for _, b := range names[i+1:] {
			pb, _ := ProfileFor(b)
			if pa.Key() != pb.Key() {
				continue
			}
			pairs++
			for _, seed := range []int64{1, 42, -7} {
				ga, gb := pa.Generator(seed), pb.Generator(seed)
				for n := 0; n < 16; n++ {
					if !bytes.Equal(ga.Page(), gb.Page()) {
						t.Fatalf("%s and %s share a key but differ at seed %d page %d", a, b, seed, n)
					}
				}
			}
		}
	}
	// The nine GraphBIG kernels share graphMix and a zero fraction.
	if pairs < 9*8/2 {
		t.Errorf("%d equal-key pairs, want at least the GraphBIG kernels' 36", pairs)
	}
}

// TestKeySeparatesContent checks that Key tells apart profiles that
// differ only in their zero-page fraction, and that it ignores the name.
func TestKeySeparatesContent(t *testing.T) {
	freqmine, _ := ProfileFor("freqmine")
	parsec, _ := ProfileFor("suite-parsec")
	if freqmine.ZeroFraction == parsec.ZeroFraction {
		t.Fatal("freqmine and suite-parsec no longer differ in ZeroFraction")
	}
	if freqmine.Key() == parsec.Key() {
		t.Error("profiles differing only in ZeroFraction share a key")
	}
	renamed := freqmine
	renamed.Name = "other"
	if renamed.Key() != freqmine.Key() {
		t.Error("the key depends on the profile name")
	}
	explicitZero := Profile{Mix: Mix{Text: 1, Random: 0}}
	if explicitZero.Key() != (Profile{Mix: Mix{Text: 1}}).Key() {
		t.Error("a zero weight changes the key, though the generator ignores it")
	}
}
