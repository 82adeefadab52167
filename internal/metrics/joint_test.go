package metrics

import (
	"math/rand"
	"reflect"
	"testing"

	"insitubits/internal/bitvec"
	"insitubits/internal/index"
)

// freshJoint is the reference JointHistogramBitmaps: decode both indexes
// with Index.BinIDs into fresh arrays, tally pair by pair.
func freshJoint(xa, xb *index.Index) [][]int {
	joint := make([][]int, xa.Bins())
	for i := range joint {
		joint[i] = make([]int, xb.Bins())
	}
	ida, idb := xa.BinIDs(nil), xb.BinIDs(nil)
	for k := range ida {
		joint[ida[k]][idb[k]]++
	}
	return joint
}

// JointHistogramBitmaps is reachable from bitmapctl and internal/offline on
// index files read from disk, whose bins need not partition their elements.
// It must not panic on them and must keep answering as it always has: an
// uncovered position counts as bin 0, a doubly claimed one as the highest
// claimant — also right after a 200-bin decode, whose ids would overrun a
// 3×3 cell table if any scratch outlived its call.
func TestJointHistogramOnBrokenPartition(t *testing.T) {
	const n = 2000
	r := rand.New(rand.NewSource(41))
	wide := index.Build(smooth(r, n), uniform(t, 200))
	good := index.Build(smooth(r, n), uniform(t, 3))

	broken := func(edit func(bins [][]bool)) *index.Index {
		bins := make([][]bool, 3)
		for b := range bins {
			bins[b] = bitvec.Bools(good.Bitmap(b))
		}
		edit(bins)
		vecs := make([]bitvec.Bitmap, len(bins))
		for b, bs := range bins {
			vecs[b] = bitvec.FromBools(bs)
		}
		x, err := index.FromParts(good.Mapper(), vecs, n)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	hole := broken(func(bins [][]bool) {
		for p := 100; p < 700; p++ { // nobody claims [100,700)
			bins[0][p], bins[1][p], bins[2][p] = false, false, false
		}
	})
	overlap := broken(func(bins [][]bool) {
		for p := 900; p < 1500; p++ { // bins 1 and 2 both claim [900,1500)
			bins[1][p], bins[2][p] = true, true
		}
	})

	for _, c := range []struct {
		name   string
		xa, xb *index.Index
	}{
		{"hole-a", hole, good}, {"hole-b", good, hole}, {"overlap-a", overlap, good},
		{"overlap-b", good, overlap}, {"hole-overlap", hole, overlap},
	} {
		want := freshJoint(c.xa, c.xb)
		JointHistogramBitmaps(wide, wide)
		if got := JointHistogramBitmaps(c.xa, c.xb); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: joint histogram\n got %v\nwant %v", c.name, got, want)
		}
		if got, want := PairFromBitmaps(c.xa, c.xb), PairFromJoint(want, c.xa.Histogram(), c.xb.Histogram(), n); got != want {
			t.Fatalf("%s: PairFromBitmaps %+v, want %+v", c.name, got, want)
		}
	}
}

// widen returns ids at two bytes an id.
func widen(ids *index.BinIDs) *index.BinIDs {
	if ids.U8 == nil {
		return ids
	}
	w := &index.BinIDs{U16: make([]uint16, len(ids.U8)), Bins: ids.Bins}
	for k, id := range ids.U8 {
		w.U16[k] = uint16(id)
	}
	return w
}

// On in-process indexes the worker count must not change one integer, and
// decoded operands must stand in for their indexes exactly — at every pairing
// of the two id widths (one byte up to 256 bins, two beyond). Over one
// binning the spatial EMD from ids is the one from the raw arrays, at every
// width pairing too.
func TestJointHistogramIDsMatchesBitmaps(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, bins := range [][2]int{{12, 7}, {256, 7}, {300, 7}, {7, 257}, {300, 257}, {48, 48}, {300, 300}} {
		for _, n := range []int{0, 1, 5, 3000} {
			a, b := smooth(r, n), smooth(r, n)
			xa := index.Build(a, uniform(t, bins[0]))
			xb := index.Build(b, uniform(t, bins[1]))
			want := freshJoint(xa, xb)
			for _, w := range []int{1, 2, 5, 64} {
				if got := JointFromIDs(index.DecodeBinIDs(xa, w), index.DecodeBinIDs(xb, w), w); !reflect.DeepEqual(got, want) {
					t.Fatalf("bins=%v n=%d workers=%d: joint histogram differs from the serial reference", bins, n, w)
				}
			}
			if bins[0] != bins[1] {
				continue
			}
			emd := EMDSpatialData(a, b, uniform(t, bins[0]))
			if got := EMDSpatialBitmaps(xa, xb); got != emd {
				t.Fatalf("bins=%v n=%d: EMDSpatialBitmaps %g, EMDSpatialData %g", bins, n, got, emd)
			}
			ida, idb := index.DecodeBinIDs(xa, 1), index.DecodeBinIDs(xb, 1)
			for _, p := range [][2]*index.BinIDs{{ida, idb}, {ida, widen(idb)}, {widen(ida), idb}, {widen(ida), widen(idb)}} {
				if got := EMDSpatialFromIDs(p[0], p[1]); got != emd {
					t.Fatalf("bins=%v n=%d widths %d,%d bytes: EMDSpatialFromIDs %g, EMDSpatialData %g",
						bins, n, p[0].SizeBytes()/max(1, n), p[1].SizeBytes()/max(1, n), got, emd)
				}
			}
		}
	}
}
