package bitvec

import (
	"fmt"
	"math/bits"
	"sync/atomic"
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
//
// The kernels that read one bitmap (OrInto, the masked kernels, CountRange)
// take a word window [w0, w1) and touch only its words, so disjoint windows
// can run on concurrent goroutines; the whole bitmap is [0, FlatWords(Len)).
// A window starts where the bitmap's skip table says its block begins.

// FlatWords is the number of uint64 words a flat buffer of n bits needs.
func FlatWords(n int) int { return (n + 63) >> 6 }

// checkWindow panics unless [w0, w1) is a window of the flat words of an
// nbits-bit bitmap that buf holds.
func checkWindow(buf []uint64, nbits, w0, w1 int) {
	if w0 < 0 || w0 > w1 || w1 > FlatWords(nbits) || w1 > len(buf) {
		panic(fmt.Sprintf("bitvec: window [%d,%d) of a %d-word buffer for %d bits", w0, w1, len(buf), nbits))
	}
}

// skipBlock is the span of one skip-table entry, in bits: 64 flat words.
const skipBlock = 1 << 12

// skipEntry locates the token (BBC) or word (WAH) covering a block's first
// bit: its stream offset and first logical unit (byte or 31-bit segment).
// int32s hold any bitmap the run encoder builds (n < 2³²); 1 M bits take 2 KB.
type skipEntry struct{ off, start int32 }

// skipTable is a bitmap's table, one entry per block, built on the first
// call that seeks past block 0 and published atomically, since bitmaps are
// shared between requests. It is never serialized or counted in SizeBytes.
type skipTable struct{ p atomic.Pointer[[]skipEntry] }

// skipStep moves from the token or word at stream offset off, first unit
// start, to the next; ok is false where a walker stops (a malformed token).
type skipStep func(off, start int) (next, end int, ok bool)

// seek returns the offset and first unit of the token or word covering bit:
// the entry of bit's block, then at most one block's tokens.
func (t *skipTable) seek(bit, nbits, unitBits, length int, step skipStep) (off, start int) {
	if k := bit / skipBlock; k > 0 {
		p := t.p.Load()
		if p == nil {
			tab := buildSkips(nbits, unitBits, length, step)
			t.p.CompareAndSwap(nil, &tab)
			p = t.p.Load()
		}
		e := (*p)[min(k, len(*p)-1)]
		off, start = int(e.off), int(e.start)
	}
	for off < length {
		next, end, ok := step(off, start)
		if !ok || end*unitBits > bit {
			break
		}
		off, start = next, end
	}
	return off, start
}

// buildSkips walks the stream once. Blocks past a malformed token point at
// the stream's end.
func buildSkips(nbits, unitBits, length int, step skipStep) []skipEntry {
	tab := make([]skipEntry, (nbits+skipBlock-1)/skipBlock)
	k, off, start := 0, 0, 0
	for off < length {
		next, end, ok := step(off, start)
		if !ok {
			break
		}
		for ; k < len(tab) && k*skipBlock < end*unitBits; k++ {
			tab[k] = skipEntry{int32(off), int32(start)}
		}
		off, start = next, end
	}
	for ; k < len(tab); k++ {
		tab[k] = skipEntry{int32(length), int32(start)}
	}
	return tab
}

func (v *Vector) step(j, seg int) (int, int, bool) {
	if w := v.words[j]; w&fillFlag != 0 {
		return j + 1, seg + int(w&countMask), true
	}
	return j + 1, seg + 1, true
}

// seek returns the word covering bit and its first bit position.
func (v *Vector) seek(bit int) (j, pos int) {
	j, seg := v.skip.seek(bit, v.nbits, SegmentBits, len(v.words), v.step)
	return j, seg * SegmentBits
}

// step moves past one token, held to the walkers' bounds: bbcToken,
// bbcLongRun, the byte length and the stream's end. It is how every BBC
// walker but the hot kernels (OrInto, the masked ones), which inline it,
// reads the stream.
func (b *BBC) step(i, at int) (int, int, bool) {
	n, next := bbcToken(b.data, i)
	if n < 0 {
		n, next = bbcLongRun(b.data, next)
	}
	if n <= 0 || n > (b.nbits+7)>>3-at {
		return i, at, false
	}
	if b.data[i] < bbcZeroRun {
		if next += n; next > len(b.data) { // a literal chunk's bytes
			return i, at, false
		}
	}
	return next, at + n, true
}

// seek returns the token covering bit's byte, or the malformed one before it.
func (b *BBC) seek(bit int) (i, at int) {
	return b.skip.seek(bit, b.nbits, 8, len(b.data), b.step)
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

// countFlatRange returns the number of set bits in [from, to) of a flat
// buffer, from < to.
func countFlatRange(words []uint64, from, to int) int {
	first, last := from>>6, (to-1)>>6
	lo, hi := ^uint64(0)<<uint(from&63), ^uint64(0)>>uint(63-(to-1)&63)
	if first == last {
		return bits.OnesCount64(words[first] & lo & hi)
	}
	return bits.OnesCount64(words[first]&lo) + CountFlat(words[first+1:last]) + bits.OnesCount64(words[last]&hi)
}

// orSegment ORs one 31-bit segment payload in at bit position pos, never
// touching a word outside [w0, w1): another worker may be writing it. A
// payload masked to the logical length never spills a set bit past it.
func orSegment(dst []uint64, pos int, w uint32, w0, w1 int) {
	i, off := pos>>6, uint(pos&63)
	if i >= w0 {
		dst[i] |= uint64(w) << off
	}
	if off > 64-SegmentBits && i+1 < w1 {
		dst[i+1] |= uint64(w) >> (64 - off)
	}
}

// OrInto ORs the vector's bits in the flat words [w0, w1) into dst, which
// holds at least w1 words: one-fills become range sets, literals shift in,
// zero-fills are skipped in O(1).
func (v *Vector) OrInto(dst []uint64, w0, w1 int) {
	checkWindow(dst, v.nbits, w0, w1)
	from, to := w0<<6, min(w1<<6, v.nbits)
	j, pos := v.seek(from)
	for ; j < len(v.words) && pos < to; j++ {
		w := v.words[j]
		if w&fillFlag != 0 {
			end := pos + int(w&countMask)*SegmentBits
			if w&fillValue != 0 {
				SetFlatRange(dst, max(pos, from), min(end, to))
			}
			pos = end
			continue
		}
		w &= literalMask
		if left := v.nbits - pos; left < SegmentBits {
			w &= uint32(1)<<uint(left) - 1
		}
		orSegment(dst, pos, w, w0, w1)
		pos += SegmentBits
	}
}

// OrInto ORs the bitmap's bits in the flat words [w0, w1) into dst, which
// holds at least w1 words. The stream is byte-aligned, so a literal chunk
// ORs in a flat word's worth of bytes at a time (bbcPiece) and one-runs are
// range sets; a token straddling the window is clipped to it. Tokens are
// decoded in place (bbcToken) and held to the bitmap's byte length, so a
// stream that is cut short or malformed stops the walk inside both buffers.
func (b *BBC) OrInto(dst []uint64, w0, w1 int) {
	checkWindow(dst, b.nbits, w0, w1)
	data, need := b.data, (b.nbits+7)>>3
	from, to := w0<<3, min(w1<<3, need) // the window's logical bytes
	i, at := b.seek(from << 3)          // at: logical byte position of the current run or chunk
	for i < len(data) && at < to {
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
			SetFlatRange(dst, 8*max(at, from), min(8*(at+n), 8*to, b.nbits))
		default:
			if i+n > len(data) {
				return
			}
			for j, e := max(at, from), min(at+n, to); j < e; {
				w, k := bbcPiece(data, i+j-at, e-j, j)
				dst[j>>3] |= w
				j += k
			}
			i += n
		}
		at += n
	}
}

// flatSegment reads the 31-bit segment starting at bit position pos; words
// before w0 and from len(src) on read as clear.
func flatSegment(src []uint64, pos, w0 int) uint32 {
	i, off := pos>>6, uint(pos&63)
	var w uint64
	if i >= w0 {
		w = src[i] >> off
	}
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
	checkWindow(src, n, 0, FlatWords(n))
	var a Appender
	pos := 0
	for pos+SegmentBits <= n {
		seg := flatSegment(src, pos, 0)
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
			if flatSegment(src, pos, 0) != seg {
				break
			}
			run++
			pos += SegmentBits
		}
		a.appendFill(seg&1, run)
	}
	a.nbits = pos
	if pos < n {
		a.AppendPartial(flatSegment(src, pos, 0), n-pos)
	}
	return a.Vector()
}
