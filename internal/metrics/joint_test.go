package metrics

import (
	"math/rand"
	"reflect"
	"testing"

	"insitubits/internal/index"
)

// freshJoint is the reference JointHistogramBitmaps: each index's bin of
// every element, read off its bitmaps one set bit at a time, tallied pair by
// pair.
func freshJoint(xa, xb *index.Index) [][]int {
	ids := func(x *index.Index) []int {
		out := make([]int, x.N())
		for b := 0; b < x.Bins(); b++ {
			x.Bitmap(b).Iterate(func(p int) bool { out[p] = b; return true })
		}
		return out
	}
	joint := make([][]int, xa.Bins())
	for i := range joint {
		joint[i] = make([]int, xb.Bins())
	}
	ida, idb := ids(xa), ids(xb)
	for k := range ida {
		joint[ida[k]][idb[k]]++
	}
	return joint
}

// JointHistogramBitmaps keeps no scratch from one call to the next: right
// after a 200-bin decode, whose ids would overrun a 3×3 cell table if any
// scratch outlived its call, pairs of 3-bin indexes answer what fresh
// decodes tally, and so does the merge of their run streams.
func TestJointHistogramScratchIsPerCall(t *testing.T) {
	const n = 2000
	r := rand.New(rand.NewSource(41))
	wide := index.Build(smooth(r, n), uniform(t, 200))
	a, b := index.Build(smooth(r, n), uniform(t, 3)), index.Build(smooth(r, n), uniform(t, 3))
	for _, c := range []struct {
		name   string
		xa, xb *index.Index
	}{{"a-b", a, b}, {"b-a", b, a}, {"a-a", a, a}} {
		want := freshJoint(c.xa, c.xb)
		JointHistogramBitmaps(wide, wide)
		if got := JointHistogramBitmaps(c.xa, c.xb); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: joint histogram\n got %v\nwant %v", c.name, got, want)
		}
		if got, want := PairFromBitmaps(c.xa, c.xb), PairFromJoint(want, c.xa.Histogram(), c.xb.Histogram(), n); got != want {
			t.Fatalf("%s: PairFromBitmaps %+v, want %+v", c.name, got, want)
		}
		ida, idb := index.DecodeBinIDs(c.xa, 1), index.DecodeBinIDs(c.xb, 1)
		checkMerge(t, ida, idb, streamOf(t, ida), streamOf(t, idb))
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
				diffs := make([]int, bins[0])
				if AddSpatialDiffs(p[0], p[1], diffs); EMDFromDiffs(diffs) != emd {
					t.Fatalf("bins=%v n=%d widths %d,%d bytes: AddSpatialDiffs' EMD %g, EMDSpatialData %g",
						bins, n, p[0].SizeBytes()/max(1, n), p[1].SizeBytes()/max(1, n), EMDFromDiffs(diffs), emd)
				}
			}
		}
	}
}
