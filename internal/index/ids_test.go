package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
)

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
				x := FromRuns(ScanIDs(ids, m, w), m, w, codec.Auto)
				if wide := bins > 256; ids == nil || ids.Bins != bins || ids.Len() != n ||
					(ids.U16 != nil) != wide || (ids.U8 != nil) == wide || ids.SizeBytes() != len(ids.U8)+2*len(ids.U16) {
					t.Fatalf("bins=%d n=%d workers=%d: ids %+v have the wrong shape", bins, n, w, ids)
				}
				wide32 := make([]int32, n)
				for b := 0; b < bins; b++ {
					bitvec.WriteIDs(x.Bitmap(b), wide32, int32(b))
				}
				for _, dw := range []int{1, 3} {
					decoded := DecodeBinIDs(x, dw)
					for k, v := range data {
						if got, want := ids.At(k), m.Bin(v); got != want || decoded.At(k) != want || int(wide32[k]) != want {
							t.Fatalf("bins=%d n=%d workers=%d: element %d is in bin %d; emitted %d, decoded(%d workers) %d, WriteIDs %d",
								bins, n, w, k, want, got, dw, decoded.At(k), wide32[k])
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

// sameRuns reports whether two streams hold the same runs at the same width.
func sameRuns(a, b *Runs) bool {
	return a.Bins == b.Bins && (a.U8 == nil) == (b.U8 == nil) &&
		slices.Equal(a.U8, b.U8) && slices.Equal(a.U16, b.U16) && slices.Equal(a.End, b.End)
}

// twoScanRuns is the run layout the build made before it kept a run
// stream: one scan of the ids counts each bin's runs, a second places them,
// bin b's (start, length) pairs at runs[2*at[b] : 2*at[b+1]].
func twoScanRuns[T uint8 | uint16](ids []T, bins, base int) (runs []uint32, at, counts []int) {
	at, counts = make([]int, bins+1), make([]int, bins)
	for i := 0; i < len(ids); i = runEnd(ids, i) {
		at[int(ids[i])+1]++
	}
	total := 0
	for b, k := range at[1:] {
		at[b+1], total = total, total+k
	}
	runs = make([]uint32, 2*total)
	for i, j := 0, 0; i < len(ids); i = j {
		j = runEnd(ids, i)
		b := int(ids[i])
		runs[2*at[b+1]], runs[2*at[b+1]+1] = uint32(base+i), uint32(j-i)
		at[b+1]++
		counts[b] += j - i
	}
	return runs, at, counts
}

// The run lists a build encodes are placed in O(runs) from a run stream
// (placeRuns): every bin's runs and count must be what the two scans of the
// ids gave, on any share of the stream of run-structured ids at both
// widths; and the stream ScanIDs finds is the same at any worker count.
func TestRunListMatchesTwoScans(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	check := func(t *testing.T, name string, got *runList, runs []uint32, at, counts []int) {
		t.Helper()
		if !slices.Equal(got.runs, runs) || !slices.Equal(got.at, at) || !slices.Equal(got.counts, counts) {
			t.Fatalf("%s: run list\n runs %v at %v counts %v\nwant %v at %v counts %v", name, got.runs, got.at, got.counts, runs, at, counts)
		}
		runLists.Put(got)
	}
	for _, bins := range []int{2, 120, 256, 257, 1000} {
		for _, n := range []int{0, 1, 7, 8, 9, 300, 4001} {
			ids := make([]int, 0, n)
			for len(ids) < n {
				id := r.Intn(bins)
				for k := 1 + r.Intn(40); k > 0 && len(ids) < n; k-- {
					ids = append(ids, id)
				}
			}
			name := fmt.Sprintf("bins=%d n=%d", bins, n)
			x := &BinIDs{Bins: bins}
			if bins <= 1<<8 {
				x.U8 = make([]uint8, n)
				for i, id := range ids {
					x.U8[i] = uint8(id)
				}
			} else {
				x.U16 = make([]uint16, n)
				for i, id := range ids {
					x.U16[i] = uint16(id)
				}
			}
			m := mustUniform(t, bins)
			stream := ScanIDs(x, m, 1)
			for _, w := range []int{2, 5} {
				if !sameRuns(ScanIDs(x, m, w), stream) {
					t.Fatalf("%s workers=%d: the run stream is not the one worker's", name, w)
				}
			}
			// The runs from a cut of the stream on: a share starting at run
			// lo holds the elements from its start, as if its ids began there.
			lo := 0
			if len(stream.End) > 0 {
				lo = r.Intn(len(stream.End))
			}
			from := 0
			if lo > 0 {
				from = int(stream.End[lo-1])
			}
			if x.U8 != nil {
				runs, at, counts := twoScanRuns(x.U8[from:], bins, from)
				check(t, name+" stream", placeRuns(stream.U8[lo:], stream.End, lo, bins), runs, at, counts)
			} else {
				runs, at, counts := twoScanRuns(x.U16[from:], bins, from)
				check(t, name+" stream", placeRuns(stream.U16[lo:], stream.End, lo, bins), runs, at, counts)
			}
		}
	}
}
