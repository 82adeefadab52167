package bitvec

import (
	"fmt"
	"math/bits"
)

// The masked id kernels: WriteIDs and its reader, restricted to a flat mask.
// A consumer that only looks at the elements a mask keeps — the query
// layer's correlation — should not pay a store per element of every selected
// bin and then read a fraction of them back. So the mask goes into the
// per-codec kernel (Chambi et al., Lemire et al.: push the uncompressed
// bitset into the container operation): a literal byte or segment is ANDed
// with the mask's before any bit is walked, a one-fill walks the mask's own
// words, a zero-fill is skipped in O(1). The work is O(compressed words +
// |b ∧ mask|).
//
// mask is flat (flat.go): bit p at word p>>6, bits at and beyond b.Len()
// clear. It may be shorter than FlatWords(b.Len()): positions past its last
// word are outside it, and a walk stops there — a caller whose mask ends
// early trims it and skips the tail of every bin.

// The two kernels hand ids from the bitmaps of one partition to those of
// another through an array that is all NoID before and after: WriteIDsMasked
// fills empty slots, TallyMasked empties filled ones, and either reports the
// first position where it found the other kind — an element two bitmaps of
// its partition hold, or (for the tally) one the other partition missed.

// NoID marks an empty slot of an id array: all ones, -1 for int32. Ids in
// use must be below it.
func NoID[T ID]() T { return ^T(0) }

// WriteIDsMasked stores id into ids at every position of b ∧ mask, each of
// which must hold NoID, and returns how many it stored. A position holding
// anything else is left alone: the walk stops and bad is that position (-1
// when there was none). ids must hold b.Len() elements.
func WriteIDsMasked[T ID](b Bitmap, mask []uint64, ids []T, id T) (n, bad int) {
	m := masked[T]{mask: mask, ids: ids, id: id, bad: -1}
	m.walk(b)
	return m.n, m.bad
}

// TallyMasked counts row[ids[p]]++ over the positions p of b ∧ mask, leaving
// NoID at each, and returns how many it counted. An id outside row — NoID
// included — is never indexed with: the walk stops and bad is its position
// (-1 when there was none).
func TallyMasked[T ID](b Bitmap, mask []uint64, ids []T, row []int) (n, bad int) {
	m := masked[T]{mask: mask, ids: ids, row: row, tally: true, bad: -1}
	m.walk(b)
	return m.n, m.bad
}

// masked is one kernel call. Store or tally is loop-invariant: the codec
// bodies below are shared, and only word — the loop over the set bits of one
// masked word — branches on it, once per word.
type masked[T ID] struct {
	mask  []uint64
	end   int // positions at and beyond it are outside b or the mask
	ids   []T
	id    T
	row   []int
	tally bool
	n     int
	bad   int
}

func (m *masked[T]) walk(b Bitmap) {
	if len(m.ids) < b.Len() {
		panic(fmt.Sprintf("bitvec: masked kernel over ids of %d for %d bits", len(m.ids), b.Len()))
	}
	m.end = min(b.Len(), len(m.mask)<<6)
	if c, ok := b.(*BBC); ok {
		m.bbc(c)
		return
	}
	m.wah(ToVector(b))
}

// word visits the set bits of w, a mask word already ANDed with the
// bitmap's bits, whose bit 0 is position base. It reports whether the walk
// goes on.
func (m *masked[T]) word(w uint64, base int) bool {
	m.n += bits.OnesCount64(w)
	if !m.tally {
		for ; w != 0; w &= w - 1 {
			p := base + bits.TrailingZeros64(w)
			if m.ids[p] != NoID[T]() {
				return m.stop(w, p)
			}
			m.ids[p] = m.id
		}
		return true
	}
	for ; w != 0; w &= w - 1 {
		p := base + bits.TrailingZeros64(w)
		j := uint(m.ids[p]) // a negative id converts to a huge one
		if j >= uint(len(m.row)) {
			return m.stop(w, p)
		}
		m.row[j]++
		m.ids[p] = NoID[T]()
	}
	return true
}

// stop ends the walk at position p, the lowest bit of what is left of w.
func (m *masked[T]) stop(w uint64, p int) bool {
	m.n -= bits.OnesCount64(w)
	m.bad = p
	return false
}

// segment visits the 31-bit payload w at position pos < m.end.
func (m *masked[T]) segment(w uint32, pos int) bool {
	w &= flatSegment(m.mask, pos)
	return w == 0 || m.word(uint64(w), pos)
}

// span visits [from, to), a one-fill: the mask's own words.
func (m *masked[T]) span(from, to int) bool {
	if to = min(to, m.end); from >= to {
		return true
	}
	first, last := from>>6, (to-1)>>6
	for i := first; i <= last; i++ {
		w := m.mask[i]
		if i == first {
			w &= ^uint64(0) << uint(from&63)
		}
		if i == last {
			w &= ^uint64(0) >> uint(63-(to-1)&63)
		}
		if w != 0 && !m.word(w, i<<6) {
			return false
		}
	}
	return true
}

func (m *masked[T]) wah(v *Vector) {
	pos := 0
	for _, w := range v.words {
		if pos >= m.end {
			return
		}
		if w&fillFlag != 0 {
			next := pos + int(w&countMask)*SegmentBits
			if w&fillValue != 0 && !m.span(pos, next) {
				return
			}
			pos = next
			continue
		}
		if !m.segment(w&literalMask, pos) {
			return
		}
		pos += SegmentBits
	}
}

// bbc reads the byte stream token by token (bbcToken), a literal chunk in
// pieces that each lie inside one mask word (bbcPiece).
func (m *masked[T]) bbc(b *BBC) {
	data, need := b.data, (m.end+7)>>3
	at := 0 // logical byte position of the current run or chunk
	for i := 0; i < len(data) && at < need; {
		tok := data[i]
		n, next := bbcToken(data, i)
		if n < 0 {
			n, next = bbcLongRun(data, next)
		}
		if n <= 0 {
			return
		}
		i = next
		switch tok {
		case bbcZeroRun:
		case bbcOneRun:
			if !m.span(8*at, 8*(at+min(n, need-at))) {
				return
			}
		default:
			if i+n > len(data) {
				return
			}
			for j, left := 0, min(n, need-at); left > 0; {
				w, k := bbcPiece(data, i+j, left, at+j)
				if w &= m.mask[(at+j)>>3]; w != 0 && !m.word(w, (at+j)>>3<<6) {
					return
				}
				j, left = j+k, left-k
			}
			i += n
		}
		at += min(n, need-at)
	}
}
