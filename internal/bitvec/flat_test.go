package bitvec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The flat kernels — OrInto, FromFlat, WriteIDs, the masked id kernels and
// the byte-stream CountRange — and what is built on them — the pairwise
// operations, CountUnits, Equal, Iterate and ToVector — against a []bool
// model, for every codec and codec pair. One checker serves the table below
// and FuzzFlatKernels.

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

// windowsOf are the word windows [w0, w1) every kernel is also run over:
// from the first and the second word, from the first block boundary and
// past it (the skip table), from a third and half of the way in (inside the
// patterns' long fills and literal runs), from the last word, and one at
// random; each to one word past its start, seven, and the end.
func windowsOf(n int) [][2]int {
	nw := FlatWords(n)
	r := rand.New(rand.NewSource(int64(n)))
	var out [][2]int
	for _, w0 := range []int{0, 1, skipBlock / 64, skipBlock/64 + 5, nw / 3, nw / 2, nw - 1, r.Intn(nw + 1)} {
		for _, w1 := range []int{w0 + 1, w0 + 7, nw} {
			if w0 >= 0 && w0 < w1 && w1 <= nw {
				out = append(out, [2]int{w0, w1})
			}
		}
	}
	return out
}

// checkMasked runs the masked id kernels over bm at one element width
// against the model bs ∧ mask: what WriteIDsMasked stores and where, what
// TallyMasked counts and takes, every other slot left as it was (the arrays
// are exactly Len long, so a write past them panics), and the report — not
// an overwrite, not an index out of range — at a slot of the wrong kind;
// and what CountMasked counts. The mask is also passed trimmed of its
// trailing zero words, and cut in half: positions past its end are outside
// it. Each window of windowsOf is a mask cut at the window's end and walked
// from its start: positions before it are outside too.
func checkMasked[T ID](t *testing.T, tag string, bm Bitmap, bs []bool) {
	t.Helper()
	const id, stray = 2, 9 // stray: an id no row below has room for
	for mname, mask := range maskModels(len(bs)) {
		flat := flatOf(mask)
		trimmed := flat
		for len(trimmed) > 0 && trimmed[len(trimmed)-1] == 0 {
			trimmed = trimmed[:len(trimmed)-1]
		}
		cuts := []struct {
			words []uint64
			w0    int
		}{{flat, 0}, {trimmed, 0}, {flat[:len(flat)/2], 0}}
		for _, w := range windowsOf(len(bs)) {
			cuts = append(cuts, struct {
				words []uint64
				w0    int
			}{flat[:w[1]], w[0]})
		}
		for _, cut := range cuts {
			words, w0 := cut.words, cut.w0
			tag := fmt.Sprintf("%s mask %s[%d:%d]", tag, mname, w0, len(words))
			var hits []int // the positions of bs ∧ mask inside the window, ascending
			for p, b := range bs {
				if b && mask[p] && p >= w0<<6 && p < len(words)<<6 {
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

			if n := CountMasked(bm, words, w0); n != len(hits) {
				t.Fatalf("%s: CountMasked = %d, want %d", tag, n, len(hits))
			}
			fill(NoID[T]())
			if n, bad := WriteIDsMasked(bm, words, ids, id, w0); n != len(hits) || bad != -1 {
				t.Fatalf("%s: WriteIDsMasked = %d, %d, want %d, -1", tag, n, bad, len(hits))
			}
			same("WriteIDsMasked", NoID[T](), len(hits), id)
			row := make([]int, id+1)
			if n, bad := TallyMasked(bm, words, ids, row, w0); n != len(hits) || bad != -1 || row[id] != len(hits) {
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
			if n, bad := WriteIDsMasked(bm, words, ids, id, w0); n != k || bad != hits[k] {
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
				if n, bad := TallyMasked(bm, words, ids, row, w0); n != k || bad != hits[k] || row[id] != k {
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

// checkOrInto ORs bm's window [w0, w1) into zeros and into the flat form of
// pre, in buffers exactly w1 words long (a write past the window's end
// panics): inside the window the bits of bs are added, outside it nothing
// changes.
func checkOrInto(t *testing.T, tag string, bm Bitmap, bs, pre []bool, w0, w1 int) {
	t.Helper()
	want, wantPre, base := flatOf(bs), flatOf(pre), flatOf(pre)
	for w := range want {
		if w < w0 || w >= w1 {
			want[w] = 0
		} else {
			wantPre[w] |= want[w]
		}
	}
	dst := make([]uint64, w1)
	bm.OrInto(dst, w0, w1)
	if !slices.Equal(dst, want[:w1]) { // also: no bit at or beyond Len was set
		t.Fatalf("%s: OrInto[%d,%d) into zeros = %x, want %x", tag, w0, w1, dst, want[:w1])
	}
	dst = base[:w1]
	bm.OrInto(dst, w0, w1)
	if !slices.Equal(dst, wantPre[:w1]) {
		t.Fatalf("%s: OrInto[%d,%d) into a populated buffer = %x, want %x", tag, w0, w1, dst, wantPre[:w1])
	}
}

// runsOf reads all of a bitmap's runs, merging fills of one bit as the WAH
// form does.
func runsOf(b Bitmap) []Run {
	var out []Run
	for rd := b.Runs(); ; {
		r, ok := rd.NextRun()
		if !ok {
			return out
		}
		if k := len(out) - 1; k >= 0 && r.Fill && out[k].Fill && out[k].Bit == r.Bit {
			out[k].N += r.N
			continue
		}
		out = append(out, r)
	}
}

// checkWhole checks what reads a whole bitmap: Count, CountUnits, Iterate
// (all of it and stopped early), ToVector (the canonical WAH words, also
// through a wrapper that hides the codec), Runs (those words again, read
// off each codec's own stream, fills merged) and Equal, which must tell the bitmap from
// one with a bit flipped.
func checkWhole(t *testing.T, tag string, bm Bitmap, bs []bool) {
	t.Helper()
	n := len(bs)
	if got, w := bm.Count(), naiveCount(bs, 0, n); got != w {
		t.Fatalf("%s: Count = %d, want %d", tag, got, w)
	}
	for _, unit := range []int{1, 7, 31, 64, 100} {
		got := bm.CountUnits(unit)
		if len(got) != (n+unit-1)/unit {
			t.Fatalf("%s: CountUnits(%d) has %d units", tag, unit, len(got))
		}
		for u := range got {
			if w := naiveCount(bs, u*unit, min((u+1)*unit, n)); got[u] != w {
				t.Fatalf("%s: CountUnits(%d)[%d] = %d, want %d", tag, unit, u, got[u], w)
			}
		}
	}
	var want, seen []int
	for p, b := range bs {
		if b {
			want = append(want, p)
		}
	}
	bm.Iterate(func(p int) bool { seen = append(seen, p); return true })
	if !slices.Equal(seen, want) {
		t.Fatalf("%s: Iterate visits %v, want %v", tag, seen, want)
	}
	seen = seen[:0]
	bm.Iterate(func(p int) bool { seen = append(seen, p); return len(seen) < 3 })
	if !slices.Equal(seen, want[:min(3, len(want))]) {
		t.Fatalf("%s: Iterate stopped after %v, want %v", tag, seen, want[:min(3, len(want))])
	}
	ref := FromBools(bs)
	for _, b := range []Bitmap{bm, opaque{bm}} {
		if v := ToVector(b); !slices.Equal(v.RawWords(), ref.RawWords()) || v.Len() != n {
			t.Fatalf("%s: ToVector(%T) = %v, want %v", tag, b, v, ref)
		}
	}
	if got, want := runsOf(bm), runsOf(ref); !slices.Equal(got, want) {
		t.Fatalf("%s: Runs = %v, want the WAH words' %v", tag, got, want)
	}
	for cname, o := range codecsOf(bs) {
		if !bm.Equal(o) || !o.Equal(bm) {
			t.Fatalf("%s: not Equal to itself as %s", tag, cname)
		}
	}
	if n > 0 {
		flipped := slices.Clone(bs)
		flipped[n/2] = !flipped[n/2]
		for cname, o := range codecsOf(flipped) {
			if bm.Equal(o) || o.Equal(bm) {
				t.Fatalf("%s: Equal to itself as %s with bit %d flipped", tag, cname, n/2)
			}
		}
	}
}

// checkPairwise checks And, Or, AndCount, XorCount and Equal on a and b,
// whose models are as and bs, both ways round.
func checkPairwise(t *testing.T, tag string, a, b Bitmap, as, bs []bool) {
	t.Helper()
	and := naiveOp(as, bs, func(x, y bool) bool { return x && y })
	or := naiveOp(as, bs, func(x, y bool) bool { return x || y })
	xor := naiveCount(naiveOp(as, bs, func(x, y bool) bool { return x != y }), 0, len(as))
	for _, c := range [][2]Bitmap{{a, b}, {b, a}} {
		x, y := c[0], c[1]
		sameBits(t, tag+"/and", x.And(y), and)
		sameBits(t, tag+"/or", x.Or(y), or)
		if got, w := x.AndCount(y), naiveCount(and, 0, len(and)); got != w {
			t.Fatalf("%s: AndCount = %d, want %d", tag, got, w)
		}
		if got := x.XorCount(y); got != xor {
			t.Fatalf("%s: XorCount = %d, want %d", tag, got, xor)
		}
		if x.Equal(y) != (xor == 0) {
			t.Fatalf("%s: Equal = %v with %d bits differing", tag, x.Equal(y), xor)
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
	// The second operands of the pairwise operations: pre, and the
	// complement, which meets every fill of bs with the opposite fill.
	not := make([]bool, n)
	for p := range not {
		not[p] = !bs[p]
	}
	for cname, bm := range codecsOf(bs) {
		tag := fmt.Sprintf("n=%d %s/%s", n, name, cname)
		checkWhole(t, tag, bm, bs)
		for _, other := range [][]bool{pre, not} {
			for oname, o := range codecsOf(other) {
				checkPairwise(t, tag+"×"+oname, bm, o, bs, other)
			}
		}
		checkOrInto(t, tag, bm, bs, pre, 0, FlatWords(n))
		for _, w := range windowsOf(n) {
			checkOrInto(t, tag, bm, bs, pre, w[0], w[1])
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
		// segment alignment still comes up) over a long one, and ranges
		// from each window's first bit.
		for from := 0; from <= n; from += 1 + n/97*2 {
			for to := from; to <= n; to += 1 + n/89*2 {
				if got, w := bm.CountRange(from, to), naiveCount(bs, from, to); got != w {
					t.Fatalf("%s: CountRange[%d,%d) = %d, want %d", tag, from, to, got, w)
				}
			}
		}
		for _, w := range windowsOf(n) {
			from, to := w[0]<<6, min(w[1]<<6, n)
			if got, w := bm.CountRange(from, to), naiveCount(bs, from, to); got != w {
				t.Fatalf("%s: CountRange[%d,%d) = %d, want %d", tag, from, to, got, w)
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
	// Past the first block, where windows seek through the skip table.
	lengths = append(lengths, skipBlock+1, 2*skipBlock, 3*skipBlock+77)
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

// TestWindowsTileTheWhole: adjacent windows of one buffer, each on its own
// goroutine, do what one whole-range call does — OrInto, the masked store,
// count and tally, CountRange — for windows of 1, 2, 7 and 64 words on a
// bitmap several skip blocks long. Run with -race: a kernel that reads or
// writes a word of its neighbour's window, even to OR in nothing, races
// with the neighbour.
func TestWindowsTileTheWhole(t *testing.T) {
	const n = 3*skipBlock + 77
	r := rand.New(rand.NewSource(29))
	bs, mask := clusteredBits(n, 90, 60, 0.6), make([]bool, n)
	for p := range bs {
		bs[p] = bs[p] || p/301%7 == 0 // long one-runs: fills straddle windows
		mask[p] = r.Intn(4) != 0
	}
	flat, nw := flatOf(mask), FlatWords(n)
	for cname, bm := range codecsOf(bs) {
		wantOr := flatOf(bs)
		wantIDs := make([]int32, n)
		wantCount := 0
		for p := range wantIDs {
			wantIDs[p] = NoID[int32]()
			if bs[p] && mask[p] {
				wantIDs[p], wantCount = 3, wantCount+1
			}
		}
		for _, size := range []int{1, 2, 7, 64} {
			tag := fmt.Sprintf("%s windows of %d words", cname, size)
			dst, ids := make([]uint64, nw), make([]int32, n)
			for p := range ids {
				ids[p] = NoID[int32]()
			}
			windows := (nw + size - 1) / size
			counts, stored, ranges, rows := make([]int, windows), make([]int, windows), make([]int, windows), make([][]int, windows)
			each := func(f func(k, lo, hi int)) {
				var wg sync.WaitGroup
				for k := 0; k < windows; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						f(k, k*size, min(nw, (k+1)*size))
					}(k)
				}
				wg.Wait()
			}
			each(func(k, lo, hi int) {
				bm.OrInto(dst, lo, hi)
				counts[k] = CountMasked(bm, flat[:hi], lo)
				stored[k], _ = WriteIDsMasked(bm, flat[:hi], ids, 3, lo)
				ranges[k] = bm.CountRange(lo<<6, min(hi<<6, n))
			})
			if !slices.Equal(dst, wantOr) {
				t.Fatalf("%s: OrInto = %x, want %x", tag, dst, wantOr)
			}
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("%s: WriteIDsMasked stored %v, want %v", tag, ids, wantIDs)
			}
			sum := func(xs []int) (s int) {
				for _, x := range xs {
					s += x
				}
				return s
			}
			if sum(counts) != wantCount || sum(stored) != wantCount || sum(ranges) != naiveCount(bs, 0, n) {
				t.Fatalf("%s: counts %d, stored %d, ranges %d, want %d, %d, %d", tag, sum(counts), sum(stored), sum(ranges), wantCount, wantCount, naiveCount(bs, 0, n))
			}
			each(func(k, lo, hi int) {
				rows[k] = make([]int, 4)
				TallyMasked(bm, flat[:hi], ids, rows[k], lo)
			})
			tallied := 0
			for _, row := range rows {
				tallied += row[3]
			}
			if tallied != wantCount || slices.ContainsFunc(ids, func(id int32) bool { return id != NoID[int32]() }) {
				t.Fatalf("%s: TallyMasked counted %d of %d, or left an id behind", tag, tallied, wantCount)
			}
		}
	}
}

// TestSkipTableConcurrentFirstUse: eight goroutines make the first windowed
// call on one shared bitmap at once, each from a different block, so each
// may build the skip table; all read right, and one table is published.
// Run with -race.
func TestSkipTableConcurrentFirstUse(t *testing.T) {
	const n = 9*skipBlock + 5
	bs := clusteredBits(n, 40, 30, 0.5)
	want := flatOf(bs)
	for cname, bm := range codecsOf(bs) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				w0 := (g + 1) * skipBlock / 64
				dst := make([]uint64, len(want))
				<-start
				bm.OrInto(dst, w0, len(want))
				if !slices.Equal(dst[w0:], want[w0:]) {
					t.Errorf("%s goroutine %d: OrInto from word %d differs from the model", cname, g, w0)
				}
				if got, w := bm.CountRange(w0<<6+g, n), naiveCount(bs, w0<<6+g, n); got != w {
					t.Errorf("%s goroutine %d: CountRange = %d, want %d", cname, g, got, w)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		var tab *skipTable
		switch c := bm.(type) {
		case *Vector:
			tab = &c.skip
		case *BBC:
			tab = &c.skip
		}
		if p := tab.p.Load(); p == nil || len(*p) != (n+skipBlock-1)/skipBlock {
			t.Fatalf("%s: no table of %d blocks published", cname, (n+skipBlock-1)/skipBlock)
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
		bs := make([]bool, int(n)%(4*skipBlock))
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

// BenchmarkOrInto is the flat decode of one 1M-bit ocean-like bin per codec:
// the whole bin, and the quarter of its words the offline batch's spatial
// ranges cover, which a window reaches through the skip table.
func BenchmarkOrInto(b *testing.B) {
	for _, c := range oceanLikeBins() {
		nw := FlatWords(c.bm.Len())
		dst := make([]uint64, nw)
		for _, w := range []struct {
			name   string
			w0, w1 int
		}{{"whole", 0, nw}, {"quarter", nw / 2, 3 * nw / 4}} {
			b.Run(c.name+"/"+w.name, func(b *testing.B) {
				b.SetBytes(int64(c.bm.SizeBytes()))
				for i := 0; i < b.N; i++ {
					c.bm.OrInto(dst, w.w0, w.w1)
				}
			})
		}
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
						WriteIDsMasked(c.bm, mask, ids, 7, 0)
						b.StopTimer()
						TallyMasked(c.bm, mask, ids, row, 0)
						b.StartTimer()
					} else {
						b.StopTimer()
						WriteIDsMasked(c.bm, mask, ids, 7, 0)
						b.StartTimer()
						TallyMasked(c.bm, mask, ids, row, 0)
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
