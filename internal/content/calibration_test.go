package content

import (
	"testing"

	"tmcc/internal/blockcomp"
	"tmcc/internal/memdeflate"
)

// Every profile records the paper-derived targets it was calibrated to
// (Table IV cols D/E, Figure 15). This regression test recompresses each
// profile's synthetic pages with the real codecs and checks the ratios
// stay within a tolerance band — so content or codec changes that would
// silently skew the capacity experiments fail here first.
func TestProfilesStayCalibrated(t *testing.T) {
	codec := memdeflate.New(memdeflate.DefaultParams())
	best := blockcomp.NewBest()
	const pages = 250
	for _, name := range Profiles() {
		prof, _ := ProfileFor(name)
		gen := prof.Generator(12345)
		var in, outMD, outBlk int
		for i := 0; i < pages; i++ {
			p := gen.Page()
			in += len(p)
			s, _ := codec.CompressedSize(p)
			outMD += s
			outBlk += best.PageSize(p)
		}
		deflate := float64(in) / float64(outMD)
		block := float64(in) / float64(outBlk)
		if deflate < prof.WantDeflateRatio*0.80 || deflate > prof.WantDeflateRatio*1.25 {
			t.Errorf("%s: deflate ratio %.2f outside [-20%%,+25%%] of target %.2f",
				name, deflate, prof.WantDeflateRatio)
		}
		if block < prof.WantBlockRatio*0.85 || block > prof.WantBlockRatio*1.20 {
			t.Errorf("%s: block ratio %.2f outside [-15%%,+20%%] of target %.2f",
				name, block, prof.WantBlockRatio)
		}
	}
}
