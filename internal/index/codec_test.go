package index

import (
	"math/rand"
	"testing"

	"insitubits/internal/codec"
)

// The index-level differential harness: the same data indexed under each
// codec must answer every query identically — bin counts, range queries,
// membership — because the codec only changes the physical encoding.
func TestIndexDifferentialAcrossCodecs(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range []int{0, 1, 100, 5000} {
		data := testData(r, n)
		m := mustUniform(t, 16)
		ref := Build(data, m)
		for _, id := range []codec.ID{codec.WAH, codec.BBC, codec.Auto} {
			x := BuildCodec(data, m, id)
			if id.Concrete() {
				for b := 0; b < x.Bins(); b++ {
					if got := x.Codec(b); got != id {
						t.Fatalf("n=%d: BuildCodec(%v) bin %d holds %v", n, id, b, got)
					}
				}
			}
			for b := 0; b < x.Bins(); b++ {
				if x.Count(b) != ref.Count(b) {
					t.Fatalf("n=%d %v: bin %d count %d != %d", n, id, b, x.Count(b), ref.Count(b))
				}
				if !x.Bitmap(b).Equal(ref.Bitmap(b)) {
					t.Fatalf("n=%d %v: bin %d bits differ from WAH reference", n, id, b)
				}
			}
			for trial := 0; trial < 20; trial++ {
				lo := r.Float64() * 10
				hi := lo + r.Float64()*(10-lo)
				want := rangeBits(ref, lo, hi)
				got := rangeBits(x, lo, hi)
				if got.Count() != want.Count() || !got.Equal(want) {
					t.Fatalf("n=%d %v: range [%g,%g) differs", n, id, lo, hi)
				}
			}
		}
	}
}

// Recode must be lossless and reversible whatever the starting encoding.
func TestRecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	data := testData(r, 3000)
	x := Build(data, mustUniform(t, 12))
	ref := Build(data, mustUniform(t, 12))
	ids := []codec.ID{codec.BBC, codec.Auto, codec.WAH, codec.BBC, codec.Auto, codec.WAH}
	for _, id := range ids {
		x.Recode(id)
		for b := 0; b < x.Bins(); b++ {
			if !x.Bitmap(b).Equal(ref.Bitmap(b)) {
				t.Fatalf("after Recode(%v): bin %d corrupted", id, b)
			}
		}
	}
}
