package metrics

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"insitubits/internal/index"
)

// randomIDs lays out n ids of the given bin count as runs: byte k of runs
// gives the k-th run a length of 1 to 64 and r its id; once runs is used up,
// the lengths come from r too.
func randomIDs(r *rand.Rand, n, bins int, runs []byte) *index.BinIDs {
	ids := &index.BinIDs{Bins: bins}
	if bins <= 1<<8 {
		ids.U8 = make([]uint8, n)
	} else {
		ids.U16 = make([]uint16, n)
	}
	for i := 0; i < n; {
		k := 1 + r.Intn(64)
		if len(runs) > 0 {
			k, runs = 1+int(runs[0])%64, runs[1:]
		}
		id := r.Intn(bins)
		for end := min(n, i+k); i < end; i++ {
			if ids.U8 != nil {
				ids.U8[i] = uint8(id)
			} else {
				ids.U16[i] = uint16(id)
			}
		}
	}
	return ids
}

// streamOf is the run stream of ids, scanned on one goroutine.
func streamOf(t *testing.T, ids *index.BinIDs) *index.Runs {
	return index.ScanIDs(ids, uniform(t, ids.Bins), 1)
}

// cutStream is the run stream of ids cut at every element of cuts: a run
// that spans a cut is two runs of the same id, as the streams of a build's
// workers are before they are joined.
func cutStream(t *testing.T, ids *index.BinIDs, cuts []int) *index.Runs {
	r := streamOf(t, ids)
	out := &index.Runs{Bins: r.Bins}
	if r.U8 != nil {
		out.U8 = []uint8{}
	} else {
		out.U16 = []uint16{}
	}
	from := uint32(0)
	for k, end := range r.End {
		stops := []uint32{}
		for _, c := range cuts {
			if c := uint32(c); c > from && c < end {
				stops = append(stops, c)
			}
		}
		slices.Sort(stops)
		for _, e := range append(slices.Compact(stops), end) {
			if r.U8 != nil {
				out.U8 = append(out.U8, r.U8[k])
			} else {
				out.U16 = append(out.U16, r.U16[k])
			}
			out.End = append(out.End, e)
		}
		from = end
	}
	return out
}

// checkMerge holds the run merge to the element-wise tallies it replaces in
// the selection scorer: AddJointRuns at several worker counts gives
// JointFromIDs' table, and, over one bin count, AddSpatialDiffsRuns gives
// SpatialDiffs' differences, integer for integer.
func checkMerge(t *testing.T, a, b *index.BinIDs, sa, sb *index.Runs) {
	t.Helper()
	want := JointFromIDs(a, b, 1)
	for _, w := range []int{1, 2, 3, 7} {
		w = max(1, min(w, a.Len()))
		cells := make([]int, w*a.Bins*b.Bins)
		AddJointRuns(sa, sb, cells, w)
		for i, row := range want {
			if got := cells[i*b.Bins : (i+1)*b.Bins]; !slices.Equal(got, row) {
				t.Fatalf("n=%d bins %d×%d workers=%d: joint row %d merged %v, tallied %v", a.Len(), a.Bins, b.Bins, w, i, got, row)
			}
		}
	}
	if a.Bins != b.Bins {
		return
	}
	diffs, merged := make([]int, a.Bins), make([]int, a.Bins)
	AddSpatialDiffs(a, b, diffs)
	if AddSpatialDiffsRuns(sa, sb, merged); !reflect.DeepEqual(merged, diffs) {
		t.Fatalf("n=%d bins=%d: spatial diffs merged %v, tallied %v", a.Len(), a.Bins, merged, diffs)
	}
}

// FuzzRunMerge checks the run merge against the id tallies on random ids at
// both widths and every pairing of them, runs of any length from 1, and
// streams cut at arbitrary places (a build's worker boundaries) as well as
// whole.
func FuzzRunMerge(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), []byte{}, []byte{})
	f.Add(int64(2), uint16(1), uint8(1), []byte{0}, []byte{0})
	f.Add(int64(3), uint16(500), uint8(2), []byte{0, 0, 5, 63, 1}, []byte{17, 90, 200})
	f.Add(int64(4), uint16(2999), uint8(3), []byte{31, 2, 2, 2}, []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(5), uint16(1200), uint8(4), []byte{}, []byte{255})
	f.Fuzz(func(t *testing.T, seed int64, nPick uint16, binsPick uint8, runs, cuts []byte) {
		n := int(nPick) % 3000
		bins := [][2]int{{1, 1}, {2, 2}, {120, 120}, {7, 257}, {300, 300}, {256, 3}}[int(binsPick)%6]
		r := rand.New(rand.NewSource(seed))
		a, b := randomIDs(r, n, bins[0], runs), randomIDs(r, n, bins[1], nil)
		at := make([]int, len(cuts))
		for k, c := range cuts {
			at[k] = int(c) * (n + 1) / 256
		}
		checkMerge(t, a, b, streamOf(t, a), streamOf(t, b))
		checkMerge(t, a, b, cutStream(t, a, at), cutStream(t, b, at[len(at)/2:]))
	})
}
