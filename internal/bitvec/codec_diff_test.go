package bitvec

import (
	"math/rand"
	"testing"
)

// Differential suite over the two codecs: the same logical bits encoded as
// WAH and BBC must agree bit-for-bit on every query primitive and on every
// binary operation, for every codec pairing (4 combinations). This is what
// keeps a changed kernel or merge from silently diverging.

// codecsOf encodes bs under both codecs.
func codecsOf(bs []bool) map[string]Bitmap {
	v := FromBools(bs)
	return map[string]Bitmap{
		"wah": v,
		"bbc": BBCFromBitmap(v),
	}
}

func diffDensities(r *rand.Rand, n int) map[string][]bool {
	out := map[string][]bool{
		"empty":  make([]bool, n),
		"full":   make([]bool, n),
		"sparse": make([]bool, n),
		"mid":    make([]bool, n),
		"heavy":  make([]bool, n),
		"runs":   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		out["full"][i] = true
		out["sparse"][i] = r.Float64() < 0.01
		out["mid"][i] = r.Float64() < 0.5
		out["heavy"][i] = r.Float64() < 0.95
		out["runs"][i] = (i/137)%2 == 0
	}
	return out
}

func TestCodecDifferentialUnary(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 30, 31, 32, 62, 93, 100, 1000, 4096} {
		for dname, bs := range diffDensities(r, n) {
			want := FromBools(bs)
			for cname, bm := range codecsOf(bs) {
				if bm.Len() != n {
					t.Fatalf("n=%d %s/%s: Len=%d", n, dname, cname, bm.Len())
				}
				if got := bm.Count(); got != want.Count() {
					t.Fatalf("n=%d %s/%s: Count=%d want %d", n, dname, cname, got, want.Count())
				}
				if !bm.Equal(want) || !want.Equal(bm) {
					t.Fatalf("n=%d %s/%s: Equal disagrees with WAH reference", n, dname, cname)
				}
				sameBits(t, dname+"/"+cname, bm, bs)
				sameBits(t, dname+"/"+cname+"/tovec", ToVector(bm), bs)
				if n > 0 {
					from := r.Intn(n)
					to := from + r.Intn(n-from+1)
					if got, w := bm.CountRange(from, to), naiveCount(bs, from, to); got != w {
						t.Fatalf("n=%d %s/%s: CountRange[%d,%d)=%d want %d", n, dname, cname, from, to, got, w)
					}
				}
				for _, unit := range []int{1, 7, 31, 64} {
					got := bm.CountUnits(unit)
					wantU := want.CountUnits(unit)
					for u := range wantU {
						if got[u] != wantU[u] {
							t.Fatalf("n=%d %s/%s: CountUnits(%d)[%d]=%d want %d", n, dname, cname, unit, u, got[u], wantU[u])
						}
					}
				}
			}
		}
	}
}

func TestCodecDifferentialBinary(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{31, 93, 100, 1000} {
		dens := diffDensities(r, n)
		pairs := [][2]string{
			{"sparse", "mid"}, {"mid", "heavy"}, {"empty", "full"},
			{"runs", "sparse"}, {"full", "runs"}, {"heavy", "heavy"},
		}
		for _, p := range pairs {
			aBits, bBits := dens[p[0]], dens[p[1]]
			as := codecsOf(aBits)
			bsM := codecsOf(bBits)
			wantAnd := naiveOp(aBits, bBits, func(x, y bool) bool { return x && y })
			wantOr := naiveOp(aBits, bBits, func(x, y bool) bool { return x || y })
			wantXor := naiveOp(aBits, bBits, func(x, y bool) bool { return x != y })
			for an, a := range as {
				for bn, b := range bsM {
					tag := p[0] + "." + an + "×" + p[1] + "." + bn
					sameBits(t, tag+"/and", a.And(b), wantAnd)
					sameBits(t, tag+"/or", a.Or(b), wantOr)
					if got, w := a.AndCount(b), naiveCount(wantAnd, 0, n); got != w {
						t.Fatalf("%s: AndCount=%d want %d", tag, got, w)
					}
					if got, w := a.XorCount(b), naiveCount(wantXor, 0, n); got != w {
						t.Fatalf("%s: XorCount=%d want %d", tag, got, w)
					}
				}
			}
		}
	}
}

func TestCodecOpsPreserveCodec(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	bs := make([]bool, 500)
	cs := make([]bool, 500)
	for i := range bs {
		bs[i] = r.Intn(4) == 0
		cs[i] = r.Intn(2) == 0
	}
	a := codecsOf(bs)
	b := codecsOf(cs)
	if _, ok := a["wah"].And(b["wah"]).(*Vector); !ok {
		t.Fatal("WAH×WAH did not stay WAH")
	}
	if _, ok := a["bbc"].Or(b["bbc"]).(*BBC); !ok {
		t.Fatal("BBC×BBC did not stay BBC")
	}
	// Mixed pairs land on the WAH intermediate.
	if _, ok := a["bbc"].And(b["wah"]).(*Vector); !ok {
		t.Fatal("mixed-codec op did not produce a WAH result")
	}
}

func TestCodecRoundTripsThroughRaw(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 31, 100, 997} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = r.Intn(3) == 0
		}
		v := FromBools(bs)
		b := BBCFromBitmap(v)
		b2, err := BBCFromRaw(b.RawBytes(), n)
		if err != nil {
			t.Fatalf("n=%d: BBCFromRaw: %v", n, err)
		}
		if !b2.Equal(v) {
			t.Fatalf("n=%d: BBC raw round-trip diverged", n)
		}
	}
}

func TestRawValidationRejectsMalformed(t *testing.T) {
	if _, err := BBCFromRaw([]byte{bbcZeroRun}, 8); err == nil {
		t.Fatal("BBC truncated run count accepted")
	}
	if _, err := BBCFromRaw([]byte{bbcZeroRun, 0}, 8); err == nil {
		t.Fatal("BBC zero-length run accepted")
	}
	if _, err := BBCFromRaw([]byte{3, 1, 2}, 32); err == nil {
		t.Fatal("BBC truncated literal accepted")
	}
	if _, err := BBCFromRaw([]byte{bbcZeroRun, 5}, 8); err == nil {
		t.Fatal("BBC over-long run accepted")
	}
	if _, err := BBCFromRaw([]byte{bbcOneRun, 1}, 5); err == nil {
		t.Fatal("BBC padding bits set accepted")
	}
	if _, err := BBCFromRaw([]byte{bbcZeroRun, 1}, 16); err == nil {
		t.Fatal("BBC short coverage accepted")
	}
}
