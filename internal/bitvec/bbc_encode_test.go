package bitvec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// packBools is the expanded model the run-domain encoder replaced: one bit
// per element in a little-endian bit buffer, which BBCFromBytes then scans
// byte by byte into the canonical stream.
func packBools(bs []bool) []byte {
	raw := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			raw[i/8] |= 1 << uint(i%8)
		}
	}
	return raw
}

// setRuns lists the set runs of bs as the build hands them to the run
// encoders, cutting runs and lists at every multiple of cut: runs then
// touch within a list and across two, as a bin's runs do across workers.
func setRuns(bs []bool, cut int) [][]uint32 {
	var lists [][]uint32
	var runs []uint32
	for i := 0; i < len(bs); {
		if i > 0 && i%cut == 0 {
			lists, runs = append(lists, runs), nil
		}
		if !bs[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(bs) && bs[j] && j%cut != 0 {
			j++
		}
		runs = append(runs, uint32(i), uint32(j-i))
		i = j
	}
	return append(lists, runs)
}

// checkBBCEncode holds the encoders to the model for one bit pattern. From
// a WAH and from a foreign Bitmap source, the unbounded stream is
// byte-identical, and the bounded form answers "not smaller" exactly when
// the stream reaches the limit — at the policy's limit (the WAH size) and
// around the stream's own size. From the set runs, however they are cut,
// both codecs give the canonical bytes and the policy keeps the smaller,
// ties to WAH.
func checkBBCEncode(t *testing.T, bs []bool) {
	t.Helper()
	want := BBCFromBytes(packBools(bs), len(bs)).RawBytes()
	v := ToVector(BBCFromBytes(packBools(bs), len(bs))) // by the Appender, not the run encoder
	for _, cut := range []int{len(bs) + 1, SegmentBits, 7} {
		runs := setRuns(bs, cut)
		if w := new(RunEncoder).WAH(len(bs), runs...); w.nbits != len(bs) || !slices.Equal(w.words, v.words) {
			t.Fatalf("%d bits cut every %d: WAH from runs %v, want %v", len(bs), cut, w, v)
		}
		if c := new(RunEncoder).BBC(len(bs), runs...); c.Len() != len(bs) || !bytes.Equal(c.RawBytes(), want) {
			t.Fatalf("%d bits cut every %d: BBC from runs % x, want % x", len(bs), cut, c.RawBytes(), want)
		}
		var kept Bitmap = v
		if len(want) < v.SizeBytes() {
			kept = BBCFromBytes(packBools(bs), len(bs))
		}
		if got := new(RunEncoder).Smaller(len(bs), runs...); fmt.Sprintf("%T", got) != fmt.Sprintf("%T", kept) || got.SizeBytes() != kept.SizeBytes() || !got.Equal(kept) {
			t.Fatalf("%d bits cut every %d: kept %T of %d bytes; WAH %d, BBC %d", len(bs), cut, got, got.SizeBytes(), v.SizeBytes(), len(want))
		}
	}
	for _, src := range []Bitmap{v, opaque{v}} {
		got := BBCFromBitmap(src)
		if got.Len() != len(bs) || !bytes.Equal(got.RawBytes(), want) {
			t.Fatalf("%T of %d bits: stream % x, want % x", src, len(bs), got.RawBytes(), want)
		}
		for _, limit := range []int{4 * v.Words(), len(want) - 1, len(want), len(want) + 1, 1, 0} {
			c := BBCIfSmaller(src, limit)
			if (c != nil) != (len(want) < limit) {
				t.Fatalf("%T of %d bits: stream of %d bytes, limit %d: smaller=%v", src, len(bs), len(want), limit, c != nil)
			}
			if c != nil && !bytes.Equal(c.RawBytes(), want) {
				t.Fatalf("%T of %d bits, limit %d: bounded stream % x, want % x", src, len(bs), limit, c.RawBytes(), want)
			}
		}
	}
}

type bbcEncodeCase struct {
	name string
	bits []bool
}

// bbcEncodeCases are the bit patterns that exercise every branch of the
// encoder; they also seed FuzzBBCEncode.
func bbcEncodeCases() []bbcEncodeCase {
	runs := func(spec ...int) []bool { // alternating zero/one runs of the given lengths
		var bs []bool
		for i, n := range spec {
			for ; n > 0; n-- {
				bs = append(bs, i%2 == 1)
			}
		}
		return bs
	}
	stripes := func(n int) []bool { // 0x55 bytes: never a run byte
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = i%2 == 0
		}
		return bs
	}
	join := func(parts ...[]bool) []bool {
		var bs []bool
		for _, p := range parts {
			bs = append(bs, p...)
		}
		return bs
	}
	r := rand.New(rand.NewSource(19))
	random := func(n int, p float64) []bool {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = r.Float64() < p
		}
		return bs
	}
	return []bbcEncodeCase{
		{"empty", nil},
		{"all-zero", make([]bool, 5000)},
		{"all-one", runs(0, 5000)},
		{"one-bit", runs(0, 1)},
		{"fills-mid-byte", runs(3, 31*7, 5, 31*9, 31*2+1, 31*40, 2)},
		{"fill-ends-inside-a-byte", runs(31*3, 2, 31*3)},
		{"one-fill-to-a-short-tail", runs(0, 31*4+5)},
		{"zero-fill-then-tail-bits", runs(31*6, 3)},
		{"long-literal", stripes(8 * 300)},
		{"literal-exactly-128", join(stripes(8*128), make([]bool, 64))},
		{"literal-129", join(stripes(8*129), make([]bool, 64))},
		{"lone-zero-byte", join(stripes(8*5), make([]bool, 8), stripes(8*5))},
		{"lone-one-byte", join(stripes(8*5), runs(0, 8), stripes(8*5))},
		{"run-bytes-between-fills", join(runs(31*5), stripes(16), runs(0, 31*5), stripes(16), runs(31*5))},
		{"sparse", random(20000, 0.001)},
		{"clustered", join(random(400, 0.5), make([]bool, 9000), random(400, 0.9), runs(0, 3000))},
		{"literal-heavy", random(20000, 0.3)},
	}
}

func TestBBCEncodeMatchesExpanded(t *testing.T) {
	for _, c := range bbcEncodeCases() {
		t.Run(c.name, func(t *testing.T) { checkBBCEncode(t, c.bits) })
	}
	// Every (n mod 31, n mod 8) pair — where the final segment, the final
	// byte and the clipped tail fall relative to each other — for a fill-
	// and a literal-ended pattern.
	t.Run("every-tail", func(t *testing.T) {
		r := rand.New(rand.NewSource(20))
		for n := 0; n <= 2*31*8; n++ {
			ones, mixed := make([]bool, n), make([]bool, n)
			for i := range ones {
				ones[i] = true
				mixed[i] = i < n/3 || r.Intn(4) == 0
			}
			checkBBCEncode(t, make([]bool, n))
			checkBBCEncode(t, ones)
			checkBBCEncode(t, mixed)
		}
	})
}

// Sources the []bool model cannot reach: fills past one WAH counter (the
// expanded buffer would be gigabytes) and raw words whose final zero-fill
// overhangs the logical length (the one overhang FromRawWords accepts).
func TestBBCEncodeLongAndOverhangingFills(t *testing.T) {
	segs := maxRun + 5
	nbits := segs * SegmentBits
	for _, bit := range []uint32{0, 1} {
		var a Appender
		a.AppendFill(bit, segs)
		v := a.Vector()
		if v.Words() != 2 {
			t.Fatalf("fill of %d segments took %d words, want 2", segs, v.Words())
		}
		want := binary.AppendUvarint([]byte{bbcZeroRun}, uint64((nbits+7)/8))
		if bit == 1 {
			want = binary.AppendUvarint([]byte{bbcOneRun}, uint64(nbits/8))
			want = append(want, 0x00, byte(1)<<uint(nbits%8)-1)
		}
		if got := BBCFromBitmap(v).RawBytes(); !bytes.Equal(got, want) {
			t.Fatalf("bit %d: stream % x, want % x", bit, got, want)
		}
		if BBCIfSmaller(v, len(want)) != nil || BBCIfSmaller(v, len(want)+1) == nil {
			t.Fatalf("bit %d: bounded encode misjudged a %d-byte stream", bit, len(want))
		}
	}
	for _, c := range []struct {
		words []uint32
		nbits int
	}{
		{[]uint32{fillFlag | 3}, 63},                  // zero-fill overhanging
		{[]uint32{0x2AAAAAAA, fillFlag | 1}, 33},      // literal, then an overhanging zero-fill
		{[]uint32{fillFlag | fillValue | 1, 0x5}, 34}, // one-fill, then a short literal
	} {
		v, err := FromRawWords(c.words, c.nbits)
		if err != nil {
			t.Fatal(err)
		}
		want := BBCFromBytes(packBools(Bools(v)), c.nbits).RawBytes()
		if got := BBCFromBitmap(v).RawBytes(); !bytes.Equal(got, want) {
			t.Fatalf("words %x, %d bits: stream % x, want % x", c.words, c.nbits, got, want)
		}
	}
}

// FuzzBBCEncode reads its input as the expanded bit buffer itself (minus up
// to seven trimmed tail bits), so the fuzzer reaches run bytes, literal
// chunk boundaries and ragged tails by plain byte mutation.
func FuzzBBCEncode(f *testing.F) {
	for _, c := range bbcEncodeCases() {
		f.Add(packBools(c.bits), uint8(8*((len(c.bits)+7)/8)-len(c.bits)))
	}
	f.Fuzz(func(t *testing.T, raw []byte, trim uint8) {
		if len(raw) > 1<<13 {
			raw = raw[:1<<13]
		}
		n := max(8*len(raw)-int(trim%8), 0)
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = raw[i/8]&(1<<uint(i%8)) != 0
		}
		checkBBCEncode(t, bs)
	})
}

// heatLikeBin is one bin of a smooth 64³ field split into 160 bins: the
// shapes the in-situ encoder sees. sparse is an isolated hot spot's bin,
// clustered a front crossing the grid in slabs, literal-heavy the busy
// mid-range bin that touches most segments.
func heatLikeBin(kind string) *Vector {
	const n = 64 * 64 * 64
	r := rand.New(rand.NewSource(7))
	bs := make([]bool, n)
	switch kind {
	case "sparse":
		for i := 0; i < n/2000; i++ {
			bs[r.Intn(n)] = true
		}
	case "clustered":
		for slab := 0; slab < n; slab += 64 * 64 {
			for i := slab + 900; i < slab+1400; i++ {
				bs[i] = r.Intn(8) != 0
			}
		}
	case "literal-heavy":
		for i := range bs {
			bs[i] = r.Intn(5) == 0
		}
	default:
		panic("unknown bin kind " + kind)
	}
	return FromBools(bs)
}

var sinkBBC *BBC

func BenchmarkBBCFromBitmap(b *testing.B) {
	for _, kind := range []string{"sparse", "clustered", "literal-heavy"} {
		v := heatLikeBin(kind)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(v.Words()), "words")
			for i := 0; i < b.N; i++ {
				sinkBBC = BBCFromBitmap(v)
			}
		})
	}
}
