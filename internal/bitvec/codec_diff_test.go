package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential suite over the two codecs: the same logical bits encoded as
// WAH and BBC must agree bit-for-bit on every query primitive. The binary
// operations, for every codec pairing, are checked against the []bool model
// in checkFlatKernels.

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

// TestPairwiseResultsAreWAH: And and Or encode their result once, from
// the flat form, as WAH, whatever the operands' codecs.
func TestPairwiseResultsAreWAH(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	bs := make([]bool, 500)
	cs := make([]bool, 500)
	for i := range bs {
		bs[i] = r.Intn(4) == 0
		cs[i] = r.Intn(2) == 0
	}
	a := codecsOf(bs)
	b := codecsOf(cs)
	for an, x := range a {
		for bn, y := range b {
			for op, got := range map[string]Bitmap{"and": x.And(y), "or": x.Or(y)} {
				if _, ok := got.(*Vector); !ok {
					t.Fatalf("%s %s %s: result is %T, want WAH", an, op, bn, got)
				}
			}
		}
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
	// WAH's padding-zero invariant, which BBC's checks above enforce too:
	// no set bit at or beyond the length, so no one-fill overhangs it.
	for _, c := range []struct {
		words []uint32
		nbits int
	}{
		{[]uint32{1 << 5}, 3},
		{[]uint32{literalMask}, 5},
		{[]uint32{fillFlag | fillValue | 1}, 3},
		{[]uint32{fillFlag | fillValue | 2}, 40},
		{[]uint32{0x2AAAAAAA, fillFlag | fillValue | 1}, 33},
	} {
		if _, err := FromRawWords(c.words, c.nbits); err == nil {
			t.Fatalf("WAH words %x with set bits past length %d accepted", c.words, c.nbits)
		}
	}
}

// TestEqualAgreesWithCounts: every encoding FromRawWords accepts — split
// fills, a literal of zeros or ones where a fill would do, a zero-fill
// overhanging the length — is Equal to another of the same bits exactly
// when XorCount finds no difference, and Count and Bools agree with it.
// The two that set bits past the length are rejected.
func TestEqualAgreesWithCounts(t *testing.T) {
	upTo := func(n int) []int {
		out := make([]int, n)
		for p := range out {
			out[p] = p
		}
		return out
	}
	for _, c := range []struct {
		words    []uint32
		nbits    int
		bits     []int // the set positions
		rejected bool
	}{
		// Bits past the length, the logical contents those before it.
		{[]uint32{1 << 5}, 3, nil, true},
		{[]uint32{fillFlag | fillValue | 1}, 3, upTo(3), true},
		{[]uint32{fillFlag | 1, fillFlag | 1}, 62, nil, false},
		{[]uint32{0, fillFlag | 1}, 40, nil, false},
		{[]uint32{literalMask, 1}, 33, upTo(32), false},
		{[]uint32{fillFlag | fillValue | 1, fillFlag | 1}, 40, upTo(31), false},
	} {
		v, err := FromRawWords(c.words, c.nbits)
		if (err != nil) != c.rejected {
			t.Errorf("words %x (%d bits): FromRawWords error %v", c.words, c.nbits, err)
		}
		if err != nil {
			continue
		}
		want := Bools(FromIndices(c.nbits, c.bits))
		sameBits(t, fmt.Sprintf("words %x", c.words), v, want)
		for cname, o := range codecsOf(want) {
			if x := v.XorCount(o); x != 0 || !v.Equal(o) || !o.Equal(v) || v.Count() != len(c.bits) {
				t.Fatalf("words %x (%d bits) vs %s: Equal %v/%v, XorCount %d, Count %d", c.words, c.nbits, cname, v.Equal(o), o.Equal(v), x, v.Count())
			}
		}
	}
}
