package index_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"insitubits/internal/binning"
	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
	"insitubits/internal/sim"
	"insitubits/internal/sim/heat3d"
	"insitubits/internal/sim/lulesh"
	"insitubits/internal/store"
)

// frontsAndNoise is a field with something for every codec: long ambient
// stretches, smooth fronts sweeping the value range and a noisy band, with a
// few values outside [0, 10) and the odd NaN for the clamps.
func frontsAndNoise(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; {
		run := 1 + r.Intn(300)
		from, to := r.Float64()*11-0.5, r.Float64()*11-0.5
		kind := r.Intn(5)
		for j := 0; j < run && i < n; j, i = j+1, i+1 {
			switch kind {
			case 0:
				out[i] = from + (to-from)*float64(j)/float64(run)
			case 1:
				out[i] = 6 + r.Float64()*3
			default:
				out[i] = 2.5
			}
		}
	}
	if n > 3 {
		out[n/2] = r.NormFloat64() * 1e9
		out[n/3] = math.NaN()
	}
	return out
}

// fromIDsLengths are 0, lengths under 7 workers × 31 and both sides of
// multiples of the 31-bit segment.
func fromIDsLengths() []int {
	lengths := []int{0, 1, 5, 40, 100}
	for _, k := range []int{1, 2, 7, 33, 300} {
		for d := -2; d <= 2; d++ {
			lengths = append(lengths, 31*k+d)
		}
	}
	return lengths
}

var fromIDsCodecs = []codec.ID{codec.WAH, codec.BBC, codec.Auto}

// buildDigests is the build from raw values that mapped as it went, one
// worker: per (bins, codec) the first eight bytes of the SHA-256 over
// store.WriteIndex of the index of every fromIDsLengths field, in order (seed
// 41 + bins). The wah and bbc digests are that build's, byte for byte. The
// auto digests were regenerated when the uncompressed Dense codec was
// retired: auto used to store the bins at ≥ 50 % density as Dense, and now
// stores them as the smaller of WAH and BBC, so only those bins' bytes moved.
var buildDigests = map[string]string{
	"2/wah":     "21e1577691f9bbf1",
	"2/bbc":     "898d7a72734d5c43",
	"2/auto":    "e312a8cf71b83edf",
	"120/wah":   "d4ed3d2205a571ca",
	"120/bbc":   "b1a55dd8ed5eb98c",
	"120/auto":  "f168ff125c353954",
	"160/wah":   "0c48fbfa46ac0990",
	"160/bbc":   "ccaf7ef5bb4ed3aa",
	"160/auto":  "291a688252e91c43",
	"256/wah":   "34c41c4a8326f5a4",
	"256/bbc":   "0c06a325098f32af",
	"256/auto":  "aa56ea0eb4eb8020",
	"257/wah":   "47e22e9788bd33ef",
	"257/bbc":   "e01dd181e2428661",
	"257/auto":  "71d3b33f6c70901f",
	"1000/wah":  "a0ab83546a343e92",
	"1000/bbc":  "79f8a3510b885152",
	"1000/auto": "df2862dab6f75c54",
}

// The build from ids, FromRuns(ScanIDs(MapIDs(data))), stores for any worker
// count exactly the bytes the build from raw values stored before the map
// was split from it — codec tag, count and payload of every bin — and
// decoding the index gives the ids back.
func TestBuildFromIDsMatchesBuild(t *testing.T) {
	for _, bins := range []int{2, 120, 160, 256, 257, 1000} {
		m, err := binning.NewUniform(0, 10, bins)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range fromIDsCodecs {
			for _, w := range []int{1, 2, 3, 7} {
				r := rand.New(rand.NewSource(int64(41 + bins)))
				h := sha256.New()
				for _, n := range fromIDsLengths() {
					data := frontsAndNoise(r, n)
					ids := index.MapIDs(data, m, w)
					x := index.FromRuns(index.ScanIDs(ids, m, w), m, w, id)
					var stored bytes.Buffer
					if _, err := store.WriteIndex(&stored, x); err != nil {
						t.Fatal(err)
					}
					h.Write(stored.Bytes())
					back := index.DecodeBinIDs(x, w)
					if x.N() != n || back.Bins != bins || !slices.Equal(back.U8, ids.U8) || !slices.Equal(back.U16, ids.U16) {
						t.Fatalf("bins=%d %v workers=%d n=%d: decoding the index does not give back the ids it was built from", bins, id, w, n)
					}
					for b, total := 0, 0; b < bins; b++ {
						if x.Count(b) != x.Bitmap(b).Count() {
							t.Fatalf("bins=%d %v workers=%d n=%d: bin %d tallied %d, holds %d", bins, id, w, n, b, x.Count(b), x.Bitmap(b).Count())
						}
						if total += x.Count(b); b == bins-1 && total != n {
							t.Fatalf("bins=%d %v workers=%d n=%d: counts sum to %d", bins, id, w, n, total)
						}
					}
				}
				key := fmt.Sprintf("%d/%v", bins, id)
				if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != buildDigests[key] {
					t.Errorf("%s workers=%d: stored bytes digest %s, the build from raw values gave %s", key, w, got, buildDigests[key])
				}
			}
		}
	}
}

// Ids that are not the mapper's — another bin count, or the wrong width for
// it — are refused before anything is scanned, and so is a run stream of
// another bin count and a mapper of more bins than ids address.
func TestBuildFromIDsRefusesForeignIDs(t *testing.T) {
	mapper := func(bins int) binning.Mapper {
		m, err := binning.NewUniform(0, 10, bins)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	data := frontsAndNoise(rand.New(rand.NewSource(42)), 500)
	narrow, wide := index.MapIDs(data, mapper(100), 2), index.MapIDs(data, mapper(300), 2)
	for name, c := range map[string]struct {
		ids *index.BinIDs
		m   binning.Mapper
	}{
		"nil ids":           {nil, mapper(100)},
		"fewer bins":        {narrow, mapper(101)},
		"more bins":         {wide, mapper(299)},
		"one byte, wide":    {&index.BinIDs{U8: narrow.U8, Bins: 300}, mapper(300)},
		"two bytes, narrow": {&index.BinIDs{U16: wide.U16, Bins: 100}, mapper(100)},
		"both widths":       {&index.BinIDs{U8: narrow.U8, U16: wide.U16, Bins: 100}, mapper(100)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ScanIDs took ids that are not the mapper's", name)
				}
			}()
			index.ScanIDs(c.ids, c.m, 2)
		}()
	}
	for name, r := range map[string]*index.Runs{"nil stream": nil, "fewer bins": index.ScanIDs(narrow, mapper(100), 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromRuns indexed a stream that is not the mapper's", name)
				}
			}()
			index.FromRuns(r, mapper(101), 2, codec.Auto)
		}()
	}
	for call, build := range map[string]func(){
		"MapIDs":             func() { index.MapIDs(data, mapper(index.MaxIDBins+1), 2) },
		"BuildParallelCodec": func() { index.BuildParallelCodec(data, mapper(index.MaxIDBins+1), 2, codec.Auto) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took a mapper of more than %d bins", call, index.MaxIDBins)
				}
			}()
			build()
		}()
	}
}

// checkBuildFromIDs builds the index of want — one bin id per element, bins
// bins — at every worker count and codec from the run stream ScanIDs finds
// (FromRuns), and holds it to a []bool model: every bin has the model's bits
// and count, in the canonical bytes of its codec (BBCFromBytes for BBC, its
// ToVector for WAH), and auto keeps BBC exactly when its encoding is the
// smaller, WAH on a tie. The stream's histogram is the model's counts, and
// one worker's stream is held at its exact size.
func checkBuildFromIDs(t *testing.T, want []int, bins int) {
	t.Helper()
	m, err := binning.NewUniform(0, 10, bins)
	if err != nil {
		t.Fatal(err)
	}
	ids := &index.BinIDs{Bins: bins}
	if bins <= 1<<8 {
		ids.U8 = make([]uint8, len(want))
	} else {
		ids.U16 = make([]uint16, len(want))
	}
	model := make([][]bool, bins)
	for b := range model {
		model[b] = make([]bool, len(want))
	}
	for i, b := range want {
		model[b][i] = true
		if ids.U8 != nil {
			ids.U8[i] = uint8(b)
		} else {
			ids.U16[i] = uint16(b)
		}
	}
	enc := map[codec.ID][]bitvec.Bitmap{}
	for _, bs := range model {
		raw := make([]byte, (len(bs)+7)/8)
		for i, set := range bs {
			if set {
				raw[i/8] |= 1 << uint(i%8)
			}
		}
		bbc := bitvec.BBCFromBytes(raw, len(bs))
		wah := bitvec.ToVector(bbc)
		auto := bitvec.Bitmap(wah)
		if bbc.SizeBytes() < wah.SizeBytes() {
			auto = bbc
		}
		enc[codec.WAH], enc[codec.BBC], enc[codec.Auto] = append(enc[codec.WAH], wah), append(enc[codec.BBC], bbc), append(enc[codec.Auto], auto)
	}
	for _, w := range []int{1, 2, 3, 5, 7} {
		runs := index.ScanIDs(ids, m, w)
		checkRuns(t, runs, want, bins)
		if w == 1 && cap(runs.End) != len(runs.End) {
			t.Fatalf("n=%d bins=%d: one worker's stream holds %d ends in room for %d", len(want), bins, len(runs.End), cap(runs.End))
		}
		hist := runs.Histogram()
		for id, bms := range enc {
			x := index.FromRuns(runs, m, w, id)
			for b, want := range bms {
				got := x.Bitmap(b)
				if x.N() != want.Len() || codec.Of(got) != codec.Of(want) ||
					!bytes.Equal(codec.Payload(got), codec.Payload(want)) || !slices.Equal(bitvec.Bools(got), model[b]) {
					t.Fatalf("n=%d bins=%d workers=%d %v: bin %d is %v %v, want %v %v", x.N(), bins, w, id, b, codec.Of(got), got, codec.Of(want), want)
				}
				if x.Count(b) != want.Count() || hist[b] != want.Count() {
					t.Fatalf("n=%d bins=%d workers=%d %v: bin %d counted %d, stream sums %d, holds %d", x.N(), bins, w, id, b, x.Count(b), hist[b], want.Count())
				}
			}
		}
	}
}

// checkRuns holds a scan's run stream to the ids it was scanned from: the
// workers' streams joined expand to exactly want, in want's id width, every
// run non-empty and no two neighbours holding the same id, so the stream is
// the same at every worker count.
func checkRuns(t *testing.T, r *index.Runs, want []int, bins int) {
	t.Helper()
	if r.Bins != bins || (r.U8 != nil) != (bins <= 1<<8) || (r.U16 != nil) != (bins > 1<<8) ||
		len(r.U8)+len(r.U16) != len(r.End) || r.Len() != len(want) || r.SizeBytes() != len(r.U8)+2*len(r.U16)+4*len(r.End) {
		t.Fatalf("n=%d bins=%d: run stream of shape %d+%d ids, %d ends, %d elements", len(want), bins, len(r.U8), len(r.U16), len(r.End), r.Len())
	}
	from, prev := uint32(0), -1
	for k, end := range r.End {
		id := 0
		if r.U8 != nil {
			id = int(r.U8[k])
		} else {
			id = int(r.U16[k])
		}
		if end <= from || id == prev {
			t.Fatalf("n=%d bins=%d: run %d (id %d) over [%d,%d) after id %d", len(want), bins, k, id, from, end, prev)
		}
		for i := from; i < end; i++ {
			if want[i] != id {
				t.Fatalf("n=%d bins=%d: run %d says element %d is in bin %d, it is in %d", len(want), bins, k, i, id, want[i])
			}
		}
		from, prev = end, id
	}
}

// runIDs lays out n ids as runs: byte k of runs gives the k-th run a length
// of 1 to 100 and an id drawn from r; once runs is used up, one run of the
// next id covers the rest of the array.
func runIDs(r *rand.Rand, n, bins int, runs []byte) []int {
	ids := make([]int, 0, n)
	for len(ids) < n {
		id, k := r.Intn(bins), n-len(ids)
		if len(runs) > 0 {
			k = min(k, 1+int(runs[0])%100)
			runs = runs[1:]
		}
		for ; k > 0; k-- {
			ids = append(ids, id)
		}
	}
	return ids
}

// fuzzBuildLengths are the array lengths FuzzBuildFromIDs picks from: the
// empty array, one element and both sides of one and two 31-bit segments,
// 248 (eight segments, a multiple of 8), or any length below 2000.
var fuzzBuildLengths = []int{0, 1, 30, 31, 32, 62, 248}

// FuzzBuildFromIDs checks the run build against the []bool model on
// run-structured ids (checkBuildFromIDs): any run pattern, at every worker
// count and codec, with 2, 120, 256 (the widest one-byte id) or 257 bins.
func FuzzBuildFromIDs(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), []byte{})
	f.Add(int64(2), uint16(5), uint8(1), []byte{9, 19, 33})
	f.Add(int64(3), uint16(6), uint8(2), []byte{0, 0, 0, 99, 3})
	f.Add(int64(4), uint16(1500), uint8(3), []byte{15, 15, 40, 7, 99, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, nPick uint16, binsPick uint8, runs []byte) {
		n := int(nPick) % 2000
		if int(nPick) < len(fuzzBuildLengths) {
			n = fuzzBuildLengths[nPick]
		}
		bins := []int{2, 120, 256, 257}[int(binsPick)%4]
		checkBuildFromIDs(t, runIDs(rand.New(rand.NewSource(seed)), n, bins, runs), bins)
	})
}

// The two edges a run build can get wrong: a run ending exactly on the last
// of whole segments, and an empty array under auto, which must stay WAH
// (both encodings are empty; ties go to WAH).
func TestBuildFromIDsRunEdges(t *testing.T) {
	t.Run("tail-run-reaches-a-segment-multiple", func(t *testing.T) {
		for _, n := range []int{31, 62, 248} {
			ids := make([]int, n)
			for i := n / 3; i < n; i++ {
				ids[i] = 1
			}
			checkBuildFromIDs(t, ids, 2)
			checkBuildFromIDs(t, ids, 257)
		}
	})
	t.Run("empty-under-auto-is-wah", func(t *testing.T) {
		checkBuildFromIDs(t, nil, 120)
	})
}

var sinkIndex *index.Index

// The build as the separate-cores reduce side runs it, its ids already
// mapped, on both run regimes of the benchmark: one heat3d step (64³, 160
// bins; a mean id run of about 16 elements) and the twelve arrays of one
// lulesh step (48³, 120 bins each; about 12).
func BenchmarkBuildFromIDs(b *testing.B) {
	h, err := heat3d.New(64, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	var field []float64
	for step := 0; step < 20; step++ {
		field = h.Step(1)[0].Data
	}
	rg := h.Ranges()[0]
	m, err := binning.NewUniform(rg[0], rg[1], 160)
	if err != nil {
		b.Fatal(err)
	}
	ids := index.MapIDs(field, m, 2)
	l, err := lulesh.New(48, 48, 48)
	if err != nil {
		b.Fatal(err)
	}
	var fields []sim.Field
	for step := 0; step < 20; step++ {
		fields = l.Step(1)
	}
	lm := make([]binning.Mapper, len(fields))
	lids := make([]*index.BinIDs, len(fields))
	for k, f := range fields {
		if lm[k], err = binning.NewUniform(l.Ranges()[k][0], l.Ranges()[k][1], 120); err != nil {
			b.Fatal(err)
		}
		lids[k] = index.MapIDs(f.Data, lm[k], 2)
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(field)))
			for i := 0; i < b.N; i++ {
				sinkIndex = index.FromRuns(index.ScanIDs(ids, m, w), m, w, codec.Auto)
			}
		})
		b.Run(fmt.Sprintf("lulesh/%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(fields) * l.Elements()))
			for i := 0; i < b.N; i++ {
				for k := range lids {
					sinkIndex = index.FromRuns(index.ScanIDs(lids[k], lm[k], w), lm[k], w, codec.Auto)
				}
			}
		})
	}
}

// heat3dStep40 is the run stream of the in-situ benchmark's heat3d field at
// its last step: 128³ elements after 40 steps, 160 bins.
func heat3dStep40(b *testing.B) (*index.BinIDs, binning.Mapper) {
	h, err := heat3d.New(128, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	var field []float64
	for step := 0; step < 40; step++ {
		field = h.Step(2)[0].Data
	}
	rg := h.Ranges()[0]
	m, err := binning.NewUniform(rg[0], rg[1], 160)
	if err != nil {
		b.Fatal(err)
	}
	return index.MapIDs(field, m, 2), m
}

var sinkRuns *index.Runs

// The first half of the in-situ build, paid on every step: the scan of one
// step's ids into their run stream.
func BenchmarkScanIDs(b *testing.B) {
	ids, m := heat3dStep40(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(ids.Len()))
			for i := 0; i < b.N; i++ {
				sinkRuns = index.ScanIDs(ids, m, w)
			}
		})
	}
}

// The second half, paid only on the steps written: the placement and encode
// of one step's run stream.
func BenchmarkFromRuns(b *testing.B) {
	ids, m := heat3dStep40(b)
	runs := index.ScanIDs(ids, m, 2)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(ids.Len()))
			for i := 0; i < b.N; i++ {
				sinkIndex = index.FromRuns(runs, m, w, codec.Auto)
			}
		})
	}
}
