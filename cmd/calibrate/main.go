// Command calibrate is a development tool: it measures per-archetype
// compression under the three compressors of Figure 15 and grid-searches
// mix weights per benchmark so synthetic dumps land on the paper's
// per-benchmark ratios (Table IV cols D/E, Figure 15). The solved weights
// are frozen into internal/content/mixes.go.
package main

import (
	"bytes"
	"compress/flate"
	"flag"
	"fmt"
	"math"
	"math/rand"

	"tmcc/internal/blockcomp"
	"tmcc/internal/content"
	"tmcc/internal/memdeflate"
)

type frac struct{ d, b, g float64 } // compressed fraction under deflate/block/gzip

func measure(seed int64) map[content.Archetype]frac {
	rng := rand.New(rand.NewSource(seed))
	md := memdeflate.New(memdeflate.DefaultParams())
	best := blockcomp.NewBest()
	out := map[content.Archetype]frac{}
	for a := content.Archetype(1); a < 11; a++ {
		var in, outMD, outBlk, outGz int
		for i := 0; i < 80; i++ {
			p := content.GeneratePage(a, rng)
			in += len(p)
			s, _ := md.CompressedSize(p)
			outMD += s
			outBlk += best.PageSize(p)
			var buf bytes.Buffer
			w, _ := flate.NewWriter(&buf, 9)
			w.Write(p)
			w.Close()
			g := buf.Len()
			if g > content.PageSize {
				g = content.PageSize
			}
			outGz += g
		}
		out[a] = frac{float64(outMD) / float64(in), float64(outBlk) / float64(in), float64(outGz) / float64(in)}
	}
	return out
}

type target struct {
	name  string
	d, b  float64 // target compressed fractions
	archs []content.Archetype
}

func main() {
	seed := flag.Int64("seed", 5, "content-generation seed (5 produced the frozen mixes)")
	flag.Parse()
	fr := measure(*seed)
	for a := content.Archetype(1); a < 11; a++ {
		f := fr[a]
		fmt.Printf("%-12v d=%.3f b=%.3f g=%.3f\n", a, f.d, f.b, f.g)
	}
	targets := []target{
		{"graph", 1 / 3.0, 1 / 1.27, []content.Archetype{content.RepeatedStructs, content.SmallInts, content.CSR, content.Random}},
		{"mcf", 1 / 2.5, 1 / 1.08, []content.Archetype{content.RepeatedStructs, content.Pointers, content.Random}},
		{"omnetpp", 1 / 2.5, 1 / 1.6, []content.Archetype{content.Text, content.SmallInts, content.Pointers, content.Random}},
		{"canneal", 1 / 1.5, 1 / 1.15, []content.Archetype{content.Pointers, content.Floats, content.Text, content.Random}},
		{"parsec", 1 / 2.8, 1 / 1.45, []content.Archetype{content.Text, content.SmallInts, content.Floats, content.Random}},
		{"spec", 1 / 3.0, 1 / 1.4, []content.Archetype{content.RepeatedStructs, content.SmallInts, content.Pointers, content.Random}},
		{"dacapo", 1 / 4.0, 1 / 1.6, []content.Archetype{content.RepeatedStructs, content.Text, content.SparseZero, content.Random}},
		{"renaissance", 1 / 4.2, 1 / 1.65, []content.Archetype{content.RepeatedStructs, content.SparseZero, content.Pointers, content.Random}},
		{"spark", 1 / 3.8, 1 / 1.55, []content.Archetype{content.RepeatedStructs, content.Text, content.SmallInts, content.Random}},
		{"rocksdb", 1 / 2.2, 1 / 1.4, []content.Archetype{content.Text, content.SmallInts, content.Random}},
		{"blackscholes", 1 / 4.5, 1 / 1.45, []content.Archetype{content.SparseZero, content.Floats, content.Text, content.Random}},
	}
	for _, t := range targets {
		w := solve(t, fr)
		fmt.Printf("%-12s ->", t.name)
		var fd, fb float64
		for i, a := range t.archs {
			fmt.Printf(" %v:%.2f", a, w[i])
			fd += w[i] * fr[a].d
			fb += w[i] * fr[a].b
		}
		fmt.Printf("   achieves d=%.2fx b=%.2fx (want %.2fx %.2fx)\n", 1/fd, 1/fb, 1/t.d, 1/t.b)
	}
}

// solve grid-searches simplex weights (step 0.02) minimizing squared error
// to the target fractions.
func solve(t target, fr map[content.Archetype]frac) []float64 {
	n := len(t.archs)
	best := make([]float64, n)
	bestErr := math.Inf(1)
	const step = 0.02
	var rec func(i int, rem float64, w []float64)
	rec = func(i int, rem float64, w []float64) {
		if i == n-1 {
			w[i] = rem
			var fd, fb float64
			for j, a := range t.archs {
				fd += w[j] * fr[a].d
				fb += w[j] * fr[a].b
			}
			e := (fd-t.d)*(fd-t.d) + (fb-t.b)*(fb-t.b)
			if e < bestErr {
				bestErr = e
				copy(best, w)
			}
			return
		}
		for x := 0.0; x <= rem+1e-9; x += step {
			w[i] = x
			rec(i+1, rem-x, w)
		}
	}
	rec(0, 1.0, make([]float64, n))
	return best
}
