// Package bitvec implements WAH (Word-Aligned Hybrid) compressed bitvectors,
// the storage primitive behind the paper's bitmap indices. A vector is a
// sequence of logical bits stored as 32-bit words of two kinds:
//
//   - literal word: bit 31 = 0, bits 0..30 hold 31 logical bits verbatim
//     (bit j of the word is logical bit j of the segment, matching the
//     "Segments[VectorID] |= 1 << j" convention of the paper's Algorithm 1);
//   - fill word: bit 31 = 1, bit 30 is the fill value, bits 0..29 count how
//     many consecutive 31-bit segments carry that value.
//
// The bitwise operations (And, Or, AndCount, XorCount) work directly on the
// compressed form, never materializing the uncompressed bits, as does
// counting (Count, CountRange). The package also provides the streaming
// Appender of the paper's in-place compression (Algorithm 1), the
// RunEncoder the index build writes either codec with from runs of set bits,
// and the byte-aligned (BBC-style) codec, the paper's other run-length code.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// SegmentBits is the number of logical bits carried by one WAH word.
const SegmentBits = 31

const (
	fillFlag    = uint32(1) << 31            // distinguishes fill words from literals
	fillValue   = uint32(1) << 30            // the repeated bit of a fill word
	countMask   = fillValue - 1              // low 30 bits: run length in segments
	literalMask = uint32(1)<<SegmentBits - 1 // low 31 bits of a literal
	// maxRun is the largest segment count representable by one fill word.
	maxRun = int(countMask)
)

// Vector is a WAH-compressed bitvector. The zero value is an empty vector
// ready for use. Vectors are immutable once built except through Appender.
type Vector struct {
	words []uint32
	nbits int // logical length in bits
	skip  skipTable
}

// FromBools compresses a boolean slice, each set element a one-bit run for
// the run encoder, which merges the runs that touch.
func FromBools(bs []bool) *Vector {
	var runs []uint32
	for i, set := range bs {
		if set {
			runs = append(runs, uint32(i), 1)
		}
	}
	return new(RunEncoder).WAH(len(bs), runs)
}

// FromIndices builds a vector of length n with 1-bits at the given sorted,
// distinct positions, as FromBools does; it panics on any other.
func FromIndices(n int, idx []int) *Vector {
	runs := make([]uint32, 0, 2*len(idx))
	prev := -1
	for _, i := range idx {
		if i <= prev || i >= n {
			panic(fmt.Sprintf("bitvec: FromIndices: index %d out of order or range [0,%d)", i, n))
		}
		prev = i
		runs = append(runs, uint32(i), 1)
	}
	return new(RunEncoder).WAH(n, runs)
}

// Len returns the logical number of bits.
func (v *Vector) Len() int { return v.nbits }

// Words returns the number of physical 32-bit words.
func (v *Vector) Words() int { return len(v.words) }

// SizeBytes returns the compressed size in bytes.
func (v *Vector) SizeBytes() int { return 4 * len(v.words) }

// RawWords exposes the underlying encoded words (read-only; used by store).
func (v *Vector) RawWords() []uint32 { return v.words }

// FromRawWords reconstructs a vector from encoded words and a bit length.
// It validates the encoding and returns an error on malformed input.
func FromRawWords(words []uint32, nbits int) (*Vector, error) {
	if nbits < 0 {
		return nil, fmt.Errorf("bitvec: negative bit length %d", nbits)
	}
	total := 0
	for _, w := range words {
		if w&fillFlag != 0 {
			c := int(w & countMask)
			if c == 0 {
				return nil, fmt.Errorf("bitvec: zero-length fill word %#x", w)
			}
			total += c * SegmentBits
		} else {
			total += SegmentBits
		}
	}
	if total < nbits || total-nbits >= SegmentBits {
		return nil, fmt.Errorf("bitvec: words cover %d bits, incompatible with declared length %d", total, nbits)
	}
	return &Vector{words: append([]uint32(nil), words...), nbits: nbits}, nil
}

// Equal reports whether two bitmaps have identical logical contents.
// Physical encodings may differ (e.g. two adjacent fills vs one); Equal
// compares run-by-run, not word-by-word.
func (v *Vector) Equal(bm Bitmap) bool {
	o, ok := bm.(*Vector)
	if !ok {
		return genericEqual(v, bm)
	}
	if v.nbits != o.nbits {
		return false
	}
	var a, b runIter
	a.reset(v.words)
	b.reset(o.words)
	for a.valid() && b.valid() {
		n := a.run
		if b.run < n {
			n = b.run
		}
		if a.fill && b.fill {
			if a.fillBit() != b.fillBit() {
				return false
			}
		} else {
			// at least one is a literal, so n == 1 for that side; compare payloads
			if a.payload() != b.payload() {
				return false
			}
			n = 1
		}
		a.consume(n)
		b.consume(n)
	}
	return !a.valid() && !b.valid()
}

// Iterate calls fn for each set bit in ascending order; fn returning false
// stops the iteration early.
func (v *Vector) Iterate(fn func(pos int) bool) {
	var it runIter
	it.reset(v.words)
	base := 0
	for it.valid() {
		if it.fill {
			if it.word&fillValue != 0 {
				end := base + it.run*SegmentBits
				if end > v.nbits {
					end = v.nbits
				}
				for p := base; p < end; p++ {
					if !fn(p) {
						return
					}
				}
			}
			base += it.run * SegmentBits
			it.consume(it.run)
			continue
		}
		w := it.payload()
		for w != 0 {
			j := bits.TrailingZeros32(w)
			p := base + j
			if p >= v.nbits {
				break
			}
			if !fn(p) {
				return
			}
			w &= w - 1
		}
		base += SegmentBits
		it.consume(1)
	}
}

// String renders a compact run description, e.g. "len=93 [L:0000001f F1x2]".
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "len=%d [", v.nbits)
	for i, w := range v.words {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if w&fillFlag != 0 {
			bit := 0
			if w&fillValue != 0 {
				bit = 1
			}
			fmt.Fprintf(&sb, "F%dx%d", bit, w&countMask)
		} else {
			fmt.Fprintf(&sb, "L:%08x", w)
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// Runs streams the contents at segment granularity (see Bitmap).
func (v *Vector) Runs() RunReader {
	r := &vecRunReader{}
	r.it.reset(v.words)
	return r
}

type vecRunReader struct{ it runIter }

func (r *vecRunReader) NextRun() (Run, bool) {
	if !r.it.valid() {
		return Run{}, false
	}
	if r.it.fill {
		run := Run{Fill: true, Bit: r.it.fillBit(), N: r.it.run}
		r.it.consume(r.it.run)
		return run, true
	}
	run := Run{N: 1, Word: r.it.payload()}
	r.it.consume(1)
	return run, true
}

var _ Bitmap = (*Vector)(nil)

// runIter walks the encoded words as a sequence of runs. For a fill word the
// run is its segment count; for a literal the run is 1. consume(n) advances
// by n segments within the current run (n must not exceed run).
type runIter struct {
	words []uint32
	pos   int
	fill  bool
	word  uint32 // current raw word
	run   int    // remaining segments in current run
}

func (it *runIter) reset(words []uint32) {
	it.words = words
	it.pos = 0
	it.load()
}

func (it *runIter) load() {
	if it.pos >= len(it.words) {
		it.run = 0
		return
	}
	w := it.words[it.pos]
	it.word = w
	if w&fillFlag != 0 {
		it.fill = true
		it.run = int(w & countMask)
	} else {
		it.fill = false
		it.run = 1
	}
}

func (it *runIter) valid() bool { return it.run > 0 }

// payload returns the expanded 31-bit segment content of the current run.
func (it *runIter) payload() uint32 {
	if it.fill {
		if it.word&fillValue != 0 {
			return literalMask
		}
		return 0
	}
	return it.word & literalMask
}

// fillBit reports the repeated bit of a fill run (only valid when fill).
func (it *runIter) fillBit() uint32 {
	if it.word&fillValue != 0 {
		return 1
	}
	return 0
}

func (it *runIter) consume(n int) {
	it.run -= n
	if it.run == 0 {
		it.pos++
		it.load()
	}
}
