package bitvec

import (
	"fmt"
	"math/bits"
)

// The flat scratch form: a []uint64 with logical bit p at word p>>6, bit
// p&63. It is what k compressed operands are combined in. Merging them
// pairwise re-encodes k-1 intermediates, and on bins whose runs are short
// the run merges cost more than the words they save (Chambi et al.,
// Lemire et al.: aggregate wide unions lazily into an uncompressed bitset).
// So each codec ORs itself into the flat words natively (OrInto), ANDs and
// range restrictions are plain word loops over them, and FromFlat encodes
// the result once. Callers own the buffer — the query executor pools it —
// and keep its bits at and beyond the logical length clear.

// FlatWords is the number of uint64 words a flat buffer of n bits needs.
func FlatWords(n int) int { return (n + 63) >> 6 }

func checkFlat(dst []uint64, nbits int) {
	if len(dst) < FlatWords(nbits) {
		panic(fmt.Sprintf("bitvec: flat buffer of %d words for %d bits", len(dst), nbits))
	}
}

// SetFlatRange sets bits [from, to) of a flat buffer.
func SetFlatRange(dst []uint64, from, to int) {
	if from >= to {
		return
	}
	first, last := from>>6, (to-1)>>6
	lo, hi := ^uint64(0)<<uint(from&63), ^uint64(0)>>uint(63-(to-1)&63)
	if first == last {
		dst[first] |= lo & hi
		return
	}
	dst[first] |= lo
	for i := first + 1; i < last; i++ {
		dst[i] = ^uint64(0)
	}
	dst[last] |= hi
}

// KeepFlatRange clears every bit of a flat buffer outside [from, to): the
// AND with a spatial range indicator that is never built.
func KeepFlatRange(dst []uint64, from, to int) {
	if from >= to {
		clear(dst)
		return
	}
	first, last := from>>6, (to-1)>>6
	clear(dst[:first])
	dst[first] &= ^uint64(0) << uint(from&63)
	dst[last] &= ^uint64(0) >> uint(63-(to-1)&63)
	clear(dst[last+1:])
}

// CountFlat returns the number of set bits in a flat buffer.
func CountFlat(words []uint64) int {
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
	}
	return total
}

// orSegment ORs one 31-bit segment payload in at bit position pos. A
// payload masked to the logical length never spills a set bit past it, so
// the second word is only touched when it exists.
func orSegment(dst []uint64, pos int, w uint32) {
	i, off := pos>>6, uint(pos&63)
	dst[i] |= uint64(w) << off
	if off > 64-SegmentBits {
		if spill := uint64(w) >> (64 - off); spill != 0 {
			dst[i+1] |= spill
		}
	}
}

// OrInto ORs the vector into a flat buffer of at least FlatWords(Len)
// words: one-fills become range sets, literals shift in, zero-fills are
// skipped in O(1).
func (v *Vector) OrInto(dst []uint64) {
	checkFlat(dst, v.nbits)
	pos := 0
	for _, w := range v.words {
		if pos >= v.nbits {
			break
		}
		if w&fillFlag != 0 {
			end := pos + int(w&countMask)*SegmentBits
			if w&fillValue != 0 {
				SetFlatRange(dst, pos, min(end, v.nbits))
			}
			pos = end
			continue
		}
		w &= literalMask
		if left := v.nbits - pos; left < SegmentBits {
			w &= uint32(1)<<uint(left) - 1
		}
		orSegment(dst, pos, w)
		pos += SegmentBits
	}
}

// OrInto ORs the bitmap into a flat buffer of at least FlatWords(Len)
// words. The stream is byte-aligned, so a literal chunk ORs in a flat word's
// worth of bytes at a time (bbcPiece) and one-runs are range sets. Tokens
// are decoded in place (bbcToken) and held to the bitmap's byte length, so a
// stream that is cut short or malformed stops the walk inside both buffers.
func (b *BBC) OrInto(dst []uint64) {
	checkFlat(dst, b.nbits)
	data, need := b.data, (b.nbits+7)>>3
	at := 0 // logical byte position of the current run or chunk
	for i := 0; i < len(data); {
		tok := data[i]
		n, next := bbcToken(data, i)
		if n < 0 {
			n, next = bbcLongRun(data, next)
		}
		if n <= 0 || n > need-at {
			return
		}
		i = next
		switch tok {
		case bbcZeroRun:
		case bbcOneRun:
			SetFlatRange(dst, 8*at, min(8*(at+n), b.nbits))
		default:
			if i+n > len(data) {
				return
			}
			for j := 0; j < n; {
				w, k := bbcPiece(data, i+j, n-j, at+j)
				dst[(at+j)>>3] |= w
				j += k
			}
			i += n
		}
		at += n
	}
}

// flatSegment reads the 31-bit segment starting at bit position pos.
func flatSegment(src []uint64, pos int) uint32 {
	i, off := pos>>6, uint(pos&63)
	w := src[i] >> off
	if off > 64-SegmentBits && i+1 < len(src) {
		w |= src[i+1] << (64 - off)
	}
	return uint32(w) & literalMask
}

// FromFlat encodes the first n bits of a flat buffer as a WAH vector — the
// one encode at the end of a flat evaluation. Homogeneous stretches are
// skipped a whole uint64 at a time, so a sparse result costs its literals,
// not its length.
func FromFlat(src []uint64, n int) *Vector {
	checkFlat(src, n)
	var a Appender
	pos := 0
	for pos+SegmentBits <= n {
		seg := flatSegment(src, pos)
		pos += SegmentBits
		if seg != 0 && seg != literalMask {
			a.words = append(a.words, seg)
			a.lits++
			continue
		}
		same := uint64(0)
		if seg != 0 {
			same = ^uint64(0)
		}
		run := 1
		for pos+SegmentBits <= n {
			if i := pos >> 6; src[i] == same {
				j := i + 1
				for j < len(src) && src[j] == same {
					j++
				}
				// Whole segments inside the homogeneous words [i, j).
				if k := (min(j<<6, n) - pos) / SegmentBits; k > 0 {
					run += k
					pos += k * SegmentBits
					continue
				}
			}
			if flatSegment(src, pos) != seg {
				break
			}
			run++
			pos += SegmentBits
		}
		a.appendFill(seg&1, run)
	}
	a.nbits = pos
	if pos < n {
		a.AppendPartial(flatSegment(src, pos), n-pos)
	}
	return a.Vector()
}
