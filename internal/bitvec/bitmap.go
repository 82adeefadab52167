package bitvec

import "fmt"

// Bitmap is the codec-independent compressed bitvector every analysis layer
// operates on. Two implementations live in this package, the paper's two
// run-length codecs: the WAH *Vector (31-bit word-aligned runs) and the
// byte-aligned *BBC. Bitmaps are immutable once built, so they are shared,
// never copied.
//
// Each codec is walked one way: WAH by a loop over its words, BBC token by
// token (bbcToken). Whatever combines bitmaps, of one codec or two, goes
// through the flat form (flat.go): each operand ORs itself into flat words,
// the words are combined, and a result is encoded once, as WAH (ops.go).
type Bitmap interface {
	// Len is the logical number of bits.
	Len() int
	// Words is the number of 32-bit words the physical encoding occupies
	// (rounded up for byte-aligned codecs).
	Words() int
	// SizeBytes is the physical encoded size in bytes.
	SizeBytes() int

	Count() int
	CountRange(from, to int) int
	CountUnits(unitSize int) []int
	Iterate(fn func(pos int) bool)
	// OrInto ORs the bitmap's bits in the flat words [w0, w1) into dst
	// (see flat.go), touching no word outside them and no bit at or beyond
	// Len. The whole bitmap is the window [0, FlatWords(Len)).
	OrInto(dst []uint64, w0, w1 int)

	And(o Bitmap) Bitmap
	Or(o Bitmap) Bitmap
	AndCount(o Bitmap) int
	XorCount(o Bitmap) int

	Equal(o Bitmap) bool
	Stats() Stats

	// Runs streams the logical contents as fill runs and literal segments
	// (see Run). Fresh reader per call; concurrent readers are independent.
	Runs() RunReader
}

// Run is one piece of a bitmap's contents at 31-bit segment granularity:
// either a run of N identical fill segments (Fill true, Bit 0 or 1) or a
// single literal segment (Fill false, N == 1, payload in Word's low 31
// bits). The runs of a bitmap cover exactly ceil(Len/31) segments; bits of
// the final segment beyond Len are zero except under a trailing zero-fill,
// whose span may overhang the logical length (consumers mask by Len).
type Run struct {
	Fill bool
	Bit  uint32 // fill bit (0 or 1) when Fill
	N    int    // segments covered; always 1 for literals
	Word uint32 // 31-bit literal payload when !Fill
}

// RunReader pulls a bitmap's runs in order: the words of its WAH form, but
// for fills of one bit that may come cut in several runs.
type RunReader interface {
	// NextRun returns the next run; ok is false when exhausted.
	NextRun() (r Run, ok bool)
}

// ToVector re-encodes any bitmap as a WAH vector: FromFlat of its OrInto.
// A *Vector passes through unchanged (bitmaps are immutable, so sharing is
// safe).
func ToVector(b Bitmap) *Vector {
	if v, ok := b.(*Vector); ok {
		return v
	}
	return FromFlat(flat(b), b.Len())
}

// flat returns b's bits in a fresh flat buffer.
func flat(b Bitmap) []uint64 {
	dst := make([]uint64, FlatWords(b.Len()))
	b.OrInto(dst, 0, len(dst))
	return dst
}

// Bools decompresses any bitmap into a boolean slice (tests/debugging).
func Bools(b Bitmap) []bool {
	out := make([]bool, b.Len())
	b.Iterate(func(pos int) bool {
		out[pos] = true
		return true
	})
	return out
}

func checkLen(a, b Bitmap) int {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", a.Len(), b.Len()))
	}
	return a.Len()
}
