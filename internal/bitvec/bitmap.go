package bitvec

import "fmt"

// Bitmap is the codec-independent compressed bitvector every analysis layer
// operates on. Two implementations live in this package, the paper's two
// run-length codecs: the WAH *Vector (31-bit word-aligned runs) and the
// byte-aligned *BBC. Both expose the same logical contents through Runs(),
// a 31-bit-segment-granular run iterator, which is what lets two bitmaps of
// different codecs be combined without decompressing either. Bitmaps are
// immutable once built, so they are shared, never copied.
//
// Binary operations accept any Bitmap and merge the two run streams, one
// body for every codec pairing; the result is WAH (the universal
// intermediate), re-encoded as BBC when both operands are BBC.
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
	// OrInto ORs the bitmap into flat scratch of at least FlatWords(Len)
	// words (see flat.go); bits of dst at and beyond Len are left alone.
	OrInto(dst []uint64)

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

// RunReader pulls a bitmap's runs in order. It is a pull iterator (not a
// callback) so two bitmaps can be co-iterated for compressed merges.
type RunReader interface {
	// NextRun returns the next run; ok is false when exhausted.
	NextRun() (r Run, ok bool)
}

// bmIter adapts a RunReader for merging: it tracks the current run and
// supports consuming it partially, mirroring the WAH runIter.
type bmIter struct {
	r   RunReader
	run Run
	ok  bool
}

func (it *bmIter) reset(r RunReader) {
	it.r = r
	it.next()
}

func (it *bmIter) next() {
	for {
		it.run, it.ok = it.r.NextRun()
		if !it.ok || it.run.N > 0 {
			return
		}
	}
}

// payload expands the current run's first segment to its 31-bit contents.
func (it *bmIter) payload() uint32 {
	if it.run.Fill {
		if it.run.Bit != 0 {
			return literalMask
		}
		return 0
	}
	return it.run.Word & literalMask
}

func (it *bmIter) consume(n int) {
	it.run.N -= n
	if it.run.N <= 0 {
		it.next()
	}
}

// ToVector re-encodes any bitmap as a WAH vector. A *Vector passes through
// unchanged (bitmaps are immutable, so sharing is safe).
func ToVector(b Bitmap) *Vector {
	if v, ok := b.(*Vector); ok {
		return v
	}
	var a Appender
	var it bmIter
	it.reset(b.Runs())
	left := b.Len()
	for it.ok && left > 0 {
		if it.run.Fill {
			span := it.run.N * SegmentBits
			if span <= left {
				a.AppendFill(it.run.Bit, it.run.N)
				left -= span
				it.consume(it.run.N)
				continue
			}
			full := left / SegmentBits
			if full > 0 {
				a.AppendFill(it.run.Bit, full)
				left -= full * SegmentBits
				it.consume(full)
			}
			if left > 0 {
				a.AppendPartial(it.payload(), left)
				left = 0
			}
			break
		}
		if left >= SegmentBits {
			a.AppendSegment(it.run.Word)
			left -= SegmentBits
		} else {
			a.AppendPartial(it.run.Word, left)
			left = 0
		}
		it.consume(1)
	}
	for left >= SegmentBits { // defensive: a short reader pads with zeros
		full := left / SegmentBits
		a.AppendFill(0, full)
		left -= full * SegmentBits
	}
	if left > 0 {
		a.AppendPartial(0, left)
	}
	return a.Vector()
}

func checkLen(a, b Bitmap) int {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", a.Len(), b.Len()))
	}
	return a.Len()
}
