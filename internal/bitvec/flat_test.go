package bitvec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The flat kernels — OrInto, FromFlat, WriteIDs, the masked id kernels and
// the byte-stream CountRange — against a []bool model, for every codec. One
// checker serves the table below and FuzzFlatKernels.

// flatOf packs a model into flat words.
func flatOf(bs []bool) []uint64 {
	out := make([]uint64, FlatWords(len(bs)))
	for p, b := range bs {
		if b {
			out[p>>6] |= 1 << uint(p&63)
		}
	}
	return out
}

// opaque hides a bitmap's codec from the kernels' type switches.
type opaque struct{ Bitmap }

// checkWriteIDs decodes bm at one element width into an array exactly Len
// long (a write past it panics) and prefilled with another id: set bits
// must read 7, every other position must be untouched.
func checkWriteIDs[T ID](t *testing.T, tag string, bm Bitmap, bs []bool) {
	t.Helper()
	ids := make([]T, len(bs))
	for p := range ids {
		ids[p] = 99
	}
	WriteIDs(bm, ids, 7)
	for p, id := range ids {
		if (id == 7) != bs[p] || (id != 7 && id != 99) {
			t.Fatalf("%s: WriteIDs left %d at %d (bit %v)", tag, id, p, bs[p])
		}
	}
}

// maskModels are the masks every bitmap is walked under: none and all of it,
// random halves, one 64-bit word's worth, and only the last, partial word.
func maskModels(n int) map[string][]bool {
	r := rand.New(rand.NewSource(int64(n)))
	out := map[string][]bool{}
	for _, name := range []string{"empty", "full", "random", "one-word", "last-word"} {
		out[name] = make([]bool, n)
	}
	for p := 0; p < n; p++ {
		out["full"][p] = true
		out["random"][p] = r.Intn(2) == 0
		out["one-word"][p] = p>>6 == n>>7
		out["last-word"][p] = p>>6 == (n-1)>>6
	}
	return out
}

// checkMasked runs the masked id kernels over bm at one element width
// against the model bs ∧ mask: what WriteIDsMasked stores and where, what
// TallyMasked counts and takes, every other slot left as it was (the arrays
// are exactly Len long, so a write past them panics), and the report — not
// an overwrite, not an index out of range — at a slot of the wrong kind. The
// mask is also passed trimmed of its trailing zero words, and cut in half:
// positions past its end are outside it.
func checkMasked[T ID](t *testing.T, tag string, bm Bitmap, bs []bool) {
	t.Helper()
	const id, stray = 2, 9 // stray: an id no row below has room for
	for mname, mask := range maskModels(len(bs)) {
		flat := flatOf(mask)
		trimmed := flat
		for len(trimmed) > 0 && trimmed[len(trimmed)-1] == 0 {
			trimmed = trimmed[:len(trimmed)-1]
		}
		for _, words := range [][]uint64{flat, trimmed, flat[:len(flat)/2]} {
			tag := fmt.Sprintf("%s mask %s[:%d]", tag, mname, len(words))
			var hits []int // the positions of bs ∧ mask inside words, ascending
			for p, b := range bs {
				if b && mask[p] && p < len(words)<<6 {
					hits = append(hits, p)
				}
			}
			ids := make([]T, len(bs))
			fill := func(v T) {
				for p := range ids {
					ids[p] = v
				}
			}
			// same: every slot but those of hits[:k] still holds v.
			same := func(what string, v T, k int, at T) {
				t.Helper()
				next := 0
				for p, got := range ids {
					want := v
					if next < k && hits[next] == p {
						want, next = at, next+1
					}
					if got != want {
						t.Fatalf("%s: %s left %d at %d, want %d", tag, what, got, p, want)
					}
				}
			}

			fill(NoID[T]())
			if n, bad := WriteIDsMasked(bm, words, ids, id); n != len(hits) || bad != -1 {
				t.Fatalf("%s: WriteIDsMasked = %d, %d, want %d, -1", tag, n, bad, len(hits))
			}
			same("WriteIDsMasked", NoID[T](), len(hits), id)
			row := make([]int, id+1)
			if n, bad := TallyMasked(bm, words, ids, row); n != len(hits) || bad != -1 || row[id] != len(hits) {
				t.Fatalf("%s: TallyMasked = %d, %d with row %v, want %d, -1", tag, n, bad, row, len(hits))
			}
			same("TallyMasked", NoID[T](), 0, 0) // every id taken: all NoID again

			if len(hits) == 0 {
				continue
			}
			k := len(hits) / 2
			// A filled slot stops the store there, and is not overwritten.
			fill(NoID[T]())
			ids[hits[k]] = stray
			if n, bad := WriteIDsMasked(bm, words, ids, id); n != k || bad != hits[k] {
				t.Fatalf("%s: WriteIDsMasked over a filled slot = %d, %d, want %d, %d", tag, n, bad, k, hits[k])
			}
			ids[hits[k]] = NoID[T]()
			same("a stopped WriteIDsMasked", NoID[T](), k, id)
			// An id outside row — NoID or a stray one — stops the tally there,
			// is left in place and never indexed with (row is exactly id+1 long).
			for _, out := range []T{NoID[T](), stray} {
				fill(stray)
				for _, p := range hits {
					ids[p] = id
				}
				ids[hits[k]] = out
				row := make([]int, id+1)
				if n, bad := TallyMasked(bm, words, ids, row); n != k || bad != hits[k] || row[id] != k {
					t.Fatalf("%s: TallyMasked over id %d = %d, %d with row %v, want %d, %d", tag, out, n, bad, row, k, hits[k])
				}
				if ids[hits[k]] != out {
					t.Fatalf("%s: TallyMasked took the id %d it reported", tag, out)
				}
				for _, p := range hits[k:] {
					ids[p] = stray
				}
				same("a stopped TallyMasked", stray, k, NoID[T]())
			}
		}
	}
}

func checkFlatKernels(t *testing.T, name string, bs []bool) {
	t.Helper()
	n := len(bs)
	want := flatOf(bs)
	// A second model already in dst: the kernels OR, they never assign.
	pre := make([]bool, n)
	for p := range pre {
		pre[p] = p%5 == 0
	}
	wantPre := flatOf(naiveOp(bs, pre, func(x, y bool) bool { return x || y }))
	for cname, bm := range codecsOf(bs) {
		tag := fmt.Sprintf("n=%d %s/%s", n, name, cname)
		dst := make([]uint64, FlatWords(n))
		bm.OrInto(dst)
		if !slices.Equal(dst, want) { // also: no bit at or beyond Len was set
			t.Fatalf("%s: OrInto into zeros = %x, want %x", tag, dst, want)
		}
		dst = flatOf(pre)
		bm.OrInto(dst)
		if !slices.Equal(dst, wantPre) {
			t.Fatalf("%s: OrInto into a populated buffer = %x, want %x", tag, dst, wantPre)
		}

		checkWriteIDs[uint8](t, tag+"/uint8", bm, bs)
		checkWriteIDs[uint16](t, tag+"/uint16", bm, bs)
		checkWriteIDs[int32](t, tag+"/int32", bm, bs)
		// Any other Bitmap implementation is re-encoded as WAH first.
		checkWriteIDs[uint8](t, tag+"/runs", opaque{bm}, bs)
		checkMasked[uint8](t, tag+"/uint8", bm, bs)
		checkMasked[uint16](t, tag+"/uint16", bm, bs)
		checkMasked[int32](t, tag+"/int32", bm, bs)
		checkMasked[uint8](t, tag+"/runs", opaque{bm}, bs)

		// Every range of a short bitmap; odd strides (so every byte and
		// segment alignment still comes up) over a long one.
		for from := 0; from <= n; from += 1 + n/97*2 {
			for to := from; to <= n; to += 1 + n/89*2 {
				if got, w := bm.CountRange(from, to), naiveCount(bs, from, to); got != w {
					t.Fatalf("%s: CountRange[%d,%d) = %d, want %d", tag, from, to, got, w)
				}
			}
		}
	}
	got := FromFlat(want, n)
	sameBits(t, name+"/fromflat", got, bs)
	if ref := FromBools(bs); !slices.Equal(got.RawWords(), ref.RawWords()) {
		t.Fatalf("n=%d %s: FromFlat encodes %v, the appender %v", n, name, got, ref)
	}
	if c := CountFlat(want); c != naiveCount(bs, 0, n) {
		t.Fatalf("n=%d %s: CountFlat = %d", n, name, c)
	}
}

// flatPatterns are the contents every length is tried with. All-one at a
// non-byte-multiple length puts the tail under a BBC one-run plus a partial
// literal; "tail-ones" is a one-fill ending exactly at Len; "straddle" keeps
// bits 50..77 mixed, so a BBC literal chunk crosses the first 64-bit word
// boundary and WAH literals cross it at two offsets.
func flatPatterns(r *rand.Rand, n int) map[string][]bool {
	out := map[string][]bool{}
	for _, name := range []string{"zero", "one", "tail-ones", "straddle", "sparse", "mixed"} {
		out[name] = make([]bool, n)
	}
	for p := 0; p < n; p++ {
		out["one"][p] = true
		out["tail-ones"][p] = p >= n/3
		out["straddle"][p] = p >= 50 && p < 78 && p%3 != 0
		out["sparse"][p] = r.Intn(97) == 0
		out["mixed"][p] = (p/137)%2 == 0 || r.Intn(4) == 0
	}
	return out
}

func TestFlatKernels(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	lengths := []int{0, 1, 7, 8, 9, 30, 31, 32, 62, 63, 64, 65, 31*64 - 1, 31 * 64, 31*64 + 1}
	for n := 130; n < 130+64; n++ { // every tail: n mod 8, mod 31 and mod 64
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for name, bs := range flatPatterns(r, n) {
			checkFlatKernels(t, name, bs)
		}
	}
}

func TestFlatRanges(t *testing.T) {
	const n = 200
	for from := 0; from <= n; from += 7 {
		for to := from; to <= n; to += 9 {
			bs := make([]bool, n)
			for p := from; p < to; p++ {
				bs[p] = true
			}
			set := make([]uint64, FlatWords(n))
			SetFlatRange(set, from, to)
			if want := flatOf(bs); !slices.Equal(set, want) {
				t.Fatalf("SetFlatRange[%d,%d) = %x, want %x", from, to, set, want)
			}
			kept := make([]uint64, FlatWords(n))
			SetFlatRange(kept, 0, n)
			KeepFlatRange(kept, from, to)
			if !slices.Equal(kept, set) {
				t.Fatalf("KeepFlatRange[%d,%d) = %x, want %x", from, to, kept, set)
			}
		}
	}
}

// FuzzFlatKernels draws the bits from the fuzzer's bytes, each repeated
// stretch+1 times so fills of every length and alignment appear.
func FuzzFlatKernels(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0xA5}, uint16(65), uint8(0))
	f.Add([]byte{0x01}, uint16(31*64+1), uint8(40))
	f.Add([]byte{0xF0, 0x0F}, uint16(200), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, stretch uint8) {
		if len(data) == 0 {
			return
		}
		bs := make([]bool, int(n)%4096)
		for p := range bs {
			q := p / (int(stretch) + 1)
			bs[p] = data[q/8%len(data)]>>(uint(q)&7)&1 != 0
		}
		checkFlatKernels(t, "fuzz", bs)
	})
}

func benchBits(n int, density float64) []bool {
	r := rand.New(rand.NewSource(3))
	bs := make([]bool, n)
	for p := range bs {
		bs[p] = r.Float64() < density
	}
	return bs
}

// clusteredBits is a bin of the offline benchmark's ocean in outline: set
// bits come in clusters — span bits long, each bit set with probability p —
// a few hundred clear bits apart, as the cells of one value band lie along a
// space-filling curve. The short tokens this compresses to are what the
// read path's walkers spend their time on.
func clusteredBits(n, gap, span int, p float64) []bool {
	r := rand.New(rand.NewSource(3))
	bs := make([]bool, n)
	for at := r.Intn(gap); at < n; at += 1 + r.Intn(2*gap) {
		for end := min(n, at+1+r.Intn(2*span)); at < end; at++ {
			bs[at] = r.Float64() < p
		}
	}
	return bs
}

// oceanLikeBins are the two codecs' bins at the shapes the adaptive policy
// gives them on that data: BBC for the sparse bands (3 % set, clusters of
// three or four bytes), WAH for the wide ones (7 %, six literal words a
// cluster).
func oceanLikeBins() []struct {
	name string
	bm   Bitmap
} {
	const n = 1 << 20
	return []struct {
		name string
		bm   Bitmap
	}{
		{"wah", codecsOf(clusteredBits(n, 355, 190, 0.16))["wah"]},
		{"bbc", codecsOf(clusteredBits(n, 300, 28, 0.35))["bbc"]},
	}
}

// BenchmarkOrInto is the flat decode of one 1M-bit ocean-like bin per codec.
func BenchmarkOrInto(b *testing.B) {
	for _, c := range oceanLikeBins() {
		dst := make([]uint64, FlatWords(c.bm.Len()))
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.bm.SizeBytes()))
			for i := 0; i < b.N; i++ {
				c.bm.OrInto(dst)
			}
		})
	}
}

// BenchmarkWriteIDsMasked and BenchmarkTallyMasked are the two halves of the
// query layer's correlation on one such bin: its ids stored, then tallied,
// at the elements a mask keeps — 1 %, 25 % or all of them, in ocean-like
// clusters too. Each timed call runs over the array the other, untimed, just
// left: all NoID before a store, holding the stored ids before a tally.
func BenchmarkWriteIDsMasked(b *testing.B) { benchMasked(b, true) }
func BenchmarkTallyMasked(b *testing.B)    { benchMasked(b, false) }

func benchMasked(b *testing.B, store bool) {
	for _, c := range oceanLikeBins() {
		n := c.bm.Len()
		full := make([]bool, n)
		for p := range full {
			full[p] = true
		}
		for _, m := range []struct {
			name string
			mask []bool
		}{{"1pct", clusteredBits(n, 1200, 24, 0.5)}, {"25pct", clusteredBits(n, 200, 200, 0.5)}, {"full", full}} {
			mask := flatOf(m.mask)
			ids := make([]int32, n)
			for p := range ids {
				ids[p] = NoID[int32]()
			}
			row := make([]int, 8)
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				b.SetBytes(int64(c.bm.SizeBytes()))
				for i := 0; i < b.N; i++ {
					if store {
						WriteIDsMasked(c.bm, mask, ids, 7)
						b.StopTimer()
						TallyMasked(c.bm, mask, ids, row)
						b.StartTimer()
					} else {
						b.StopTimer()
						WriteIDsMasked(c.bm, mask, ids, 7)
						b.StartTimer()
						TallyMasked(c.bm, mask, ids, row)
					}
				}
			})
		}
	}
}

// BenchmarkWriteIDs is the id decode of one sparse 1M-bit bin per codec,
// into each element width: one and two
// bytes (the selection scorer's ids), four (the query layer's scratch).
func BenchmarkWriteIDs(b *testing.B) {
	b.Run("uint8", benchWriteIDs[uint8])
	b.Run("uint16", benchWriteIDs[uint16])
	b.Run("int32", benchWriteIDs[int32])
}

func benchWriteIDs[T ID](b *testing.B) {
	const n = 1 << 20
	for _, c := range []struct {
		name    string
		density float64
	}{{"wah", 0.01}, {"bbc", 0.01}} {
		bm := codecsOf(benchBits(n, c.density))[c.name]
		dst := make([]T, n)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(bm.SizeBytes()))
			for i := 0; i < b.N; i++ {
				WriteIDs(bm, dst, 7)
			}
		})
	}
}
