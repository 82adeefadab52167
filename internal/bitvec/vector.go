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
// Counting (Count, CountRange) and the id decode (WriteIDs) walk the
// compressed words, one loop per codec, never materializing the
// uncompressed bits. Whatever combines bitmaps — And, Or, the counts of
// both — goes through the flat form (flat.go), where k bitmaps combine with
// one encode at the end. The package also provides the streaming Appender
// of the paper's in-place compression (Algorithm 1), the RunEncoder the
// index build writes either codec with from runs of set bits, and the
// byte-aligned (BBC-style) codec, the paper's other run-length code.
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
	// The padding-zero invariant: no bit at or beyond nbits is set, so the
	// walkers need no mask. Only a trailing zero-fill may overhang.
	if pad := total - nbits; pad > 0 {
		last := words[len(words)-1]
		oneFill := last&(fillFlag|fillValue) == fillFlag|fillValue
		if oneFill || last&fillFlag == 0 && last>>uint(SegmentBits-pad) != 0 {
			return nil, fmt.Errorf("bitvec: encoding has set bits beyond length %d", nbits)
		}
	}
	return &Vector{words: append([]uint32(nil), words...), nbits: nbits}, nil
}

// Iterate calls fn for each set bit in ascending order; fn returning false
// stops the iteration early.
func (v *Vector) Iterate(fn func(pos int) bool) {
	pos := 0
	for _, w := range v.words {
		if w&fillFlag != 0 {
			end := pos + int(w&countMask)*SegmentBits
			if w&fillValue != 0 {
				for p := pos; p < end; p++ {
					if !fn(p) {
						return
					}
				}
			}
			pos = end
			continue
		}
		for ; w != 0; w &= w - 1 {
			if !fn(pos + bits.TrailingZeros32(w)) {
				return
			}
		}
		pos += SegmentBits
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

// Runs streams the contents at segment granularity (see Bitmap): one run
// per word.
func (v *Vector) Runs() RunReader { return &vecRunReader{v.words} }

type vecRunReader struct{ words []uint32 }

func (r *vecRunReader) NextRun() (Run, bool) {
	if len(r.words) == 0 {
		return Run{}, false
	}
	w := r.words[0]
	r.words = r.words[1:]
	if w&fillFlag != 0 {
		return Run{Fill: true, Bit: w & fillValue >> 30, N: int(w & countMask)}, true
	}
	return Run{N: 1, Word: w & literalMask}, true
}

var _ Bitmap = (*Vector)(nil)
