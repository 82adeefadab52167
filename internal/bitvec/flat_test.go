package bitvec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The flat kernels — OrInto, FromFlat, WriteIDs and the byte-stream
// CountRange — against a []bool model, for every codec. One checker serves
// the table below and FuzzFlatKernels.

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
		// Any other Bitmap implementation decodes through its Runs().
		checkWriteIDs[uint8](t, tag+"/runs", opaque{bm}, bs)

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
	for _, n := range []int{0, 1, 7, 8, 9, 30, 31, 32, 62, 63, 64, 65, 31*64 - 1, 31 * 64, 31*64 + 1} {
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

// BenchmarkOrInto is the flat decode of one 1M-bit bin per codec, at the
// density each codec is chosen for.
func BenchmarkOrInto(b *testing.B) {
	const n = 1 << 20
	for _, c := range []struct {
		name    string
		density float64
	}{{"wah", 0.01}, {"bbc", 0.01}, {"dense", 0.6}} {
		bm := codecsOf(benchBits(n, c.density))[c.name]
		dst := make([]uint64, FlatWords(n))
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(bm.SizeBytes()))
			for i := 0; i < b.N; i++ {
				bm.OrInto(dst)
			}
		})
	}
}

// BenchmarkWriteIDs is the id decode of one 1M-bit bin per codec, at the
// density each codec is chosen for, into each element width: one and two
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
	}{{"wah", 0.01}, {"bbc", 0.01}, {"dense", 0.6}} {
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
