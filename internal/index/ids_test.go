package index

import (
	"bytes"
	"math/rand"
	"testing"

	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
)

// at reads element k's id at whichever width the array has.
func (ids *BinIDs) at(k int) int {
	if ids.U8 != nil {
		return int(ids.U8[k])
	}
	return int(ids.U16[k])
}

// The ids a build emits are a pure function of the bitmaps it builds: they
// are the mapper's bin of every element, they are what decoding the finished
// index gives back (through DecodeBinIDs, striped or not, and through
// bitvec.WriteIDs at the widest width), one byte wide up to 256 bins and two
// beyond — and asking for them changes nothing about the index.
func TestBuildIDsMatchMapperAndDecode(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	lengths := []int{0, 1, 5, 40, 100} // 40 and 100 are less than 7 workers × 31
	for _, k := range []int{1, 2, 7, 33, 300} {
		for d := -2; d <= 2; d++ {
			lengths = append(lengths, 31*k+d)
		}
	}
	for _, bins := range []int{2, 160, 256, 257, 1000} {
		m := mustUniform(t, bins)
		for _, n := range lengths {
			data := heatLike(r, n)
			plain := BuildParallelCodec(data, m, 1, codec.Auto)
			for _, w := range []int{1, 2, 3, 7} {
				ids := MapIDs(data, m, w)
				x := BuildFromIDs(ids, m, w, codec.Auto)
				if wide := bins > 256; ids == nil || ids.Bins != bins || ids.Len() != n ||
					(ids.U16 != nil) != wide || (ids.U8 != nil) == wide || ids.SizeBytes() != len(ids.U8)+2*len(ids.U16) {
					t.Fatalf("bins=%d n=%d workers=%d: ids %+v have the wrong shape", bins, n, w, ids)
				}
				wide32 := x.BinIDs(nil)
				for _, dw := range []int{1, 3} {
					decoded := DecodeBinIDs(x, dw)
					for k, v := range data {
						if got, want := ids.at(k), m.Bin(v); got != want || decoded.at(k) != want || int(wide32[k]) != want {
							t.Fatalf("bins=%d n=%d workers=%d: element %d is in bin %d; emitted %d, decoded(%d workers) %d, BinIDs %d",
								bins, n, w, k, want, got, dw, decoded.at(k), wide32[k])
						}
					}
				}
				if x.N() != n || x.Bins() != bins {
					t.Fatalf("bins=%d n=%d workers=%d: index shape %d×%d", bins, n, w, x.N(), x.Bins())
				}
				for b := 0; b < bins; b++ {
					if x.Codec(b) != plain.Codec(b) || x.Count(b) != plain.Count(b) ||
						!bytes.Equal(codec.Payload(x.Bitmap(b)), codec.Payload(plain.Bitmap(b))) {
						t.Fatalf("bins=%d n=%d workers=%d: bin %d differs from the build that emits no ids", bins, n, w, b)
					}
				}
			}
		}
	}
}

// Two bytes address 65 536 bins; beyond that neither the build nor the
// decoder produces narrow ids, and the index itself is unaffected.
func TestNoIDsAboveMaxIDBins(t *testing.T) {
	data := heatLike(rand.New(rand.NewSource(34)), 500)
	for _, bins := range []int{MaxIDBins, MaxIDBins + 1} {
		m := mustUniform(t, bins)
		x, ids := BuildParallelCodec(data, m, 2, codec.WAH), MapIDs(data, m, 2)
		if decoded := DecodeBinIDs(x, 2); (ids != nil) != (bins <= MaxIDBins) || (decoded != nil) != (bins <= MaxIDBins) {
			t.Fatalf("%d bins: emitted ids %v, decoded ids %v", bins, ids != nil, decoded != nil)
		}
		wide := make([]int32, len(data))
		for b := 0; b < bins; b++ {
			bitvec.WriteIDs(x.Bitmap(b), wide, int32(b))
		}
		for k, v := range data {
			if int(wide[k]) != m.Bin(v) || (ids != nil && ids.at(k) != m.Bin(v)) {
				t.Fatalf("%d bins: element %d decodes to %d, mapper says %d", bins, k, wide[k], m.Bin(v))
			}
		}
	}
}
