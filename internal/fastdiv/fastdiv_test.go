package fastdiv

import (
	"math/rand"
	"testing"
)

// TestMatchesDivision compares Div and Mod with / and % for every n up
// to 130 and every power of two, at edge and seeded dividends.
func TestMatchesDivision(t *testing.T) {
	var ns []uint64
	for n := uint64(1); n <= 130; n++ {
		ns = append(ns, n)
	}
	for s := 8; s < 64; s++ {
		ns = append(ns, 1<<s, 1<<s-1, 1<<s+1)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range ns {
		d := New(n)
		xs := []uint64{0, 1, n - 1, n, n + 1, 2*n - 1, 1<<63 - 1, 1 << 63, 1<<64 - 1}
		for range 200 {
			xs = append(xs, rng.Uint64(), rng.Uint64()>>rng.Intn(64))
		}
		for _, x := range xs {
			if q, r := d.Div(x), d.Mod(x); q != x/n || r != x%n {
				t.Fatalf("New(%d): Div(%d), Mod = %d, %d, want %d, %d", n, x, q, r, x/n, x%n)
			}
		}
	}
}

// TestZeroPanics checks that dividing by zero still panics.
func TestZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	New(0).Div(1)
}
