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
// clear. A kernel walks the window [w0, len(mask)) of its words and touches
// no mask word or id slot outside it, so a caller trims the mask's empty
// tail and starts past its empty head, and windows can run concurrently.

// WriteIDsMasked and TallyMasked hand ids from the bitmaps of one partition
// to those of another through an array that is all NoID before and after:
// the store fills empty slots, the tally empties filled ones, and either
// reports the first position where it found the other kind — an element two
// bitmaps of its partition hold, or (for the tally) one the other missed.

// NoID marks an empty slot of an id array: all ones, -1 for int32. Ids in
// use must be below it.
func NoID[T ID]() T { return ^T(0) }

// WriteIDsMasked stores id into ids at every position of b ∧ mask in the
// window, each of which must hold NoID, and returns how many it stored. A
// position holding anything else is left alone: the walk stops and bad is
// that position (-1 when there was none). ids must hold b.Len() elements.
func WriteIDsMasked[T ID](b Bitmap, mask []uint64, ids []T, id T, w0 int) (n, bad int) {
	m := masked[T]{mask: mask, ids: ids, id: id, mode: maskStore, bad: -1}
	m.walk(b, w0)
	return m.n, m.bad
}

// TallyMasked counts row[ids[p]]++ over the positions p of b ∧ mask in the
// window, leaving NoID at each, and returns how many it counted. An id
// outside row — NoID included — is never indexed with: the walk stops and
// bad is its position (-1 when there was none).
func TallyMasked[T ID](b Bitmap, mask []uint64, ids []T, row []int, w0 int) (n, bad int) {
	m := masked[T]{mask: mask, ids: ids, row: row, mode: maskTally, bad: -1}
	m.walk(b, w0)
	return m.n, m.bad
}

// CountMasked returns the number of positions of b ∧ mask in the window.
func CountMasked(b Bitmap, mask []uint64, w0 int) int {
	m := masked[uint8]{mask: mask, bad: -1}
	m.walk(b, w0)
	return m.n
}

type maskMode uint8

const (
	maskCount maskMode = iota
	maskStore
	maskTally
)

// masked is one kernel call. The mode is loop-invariant: the codec bodies
// below are shared, and only word — the loop over the set bits of one
// masked word — branches on it, once per word.
type masked[T ID] struct {
	mask []uint64
	w0   int // the window's first word: mask words before it read as clear
	end  int // positions at and beyond it are outside b or the mask
	ids  []T
	id   T
	row  []int
	mode maskMode
	n    int
	bad  int
}

func (m *masked[T]) walk(b Bitmap, w0 int) {
	if m.mode != maskCount && len(m.ids) < b.Len() {
		panic(fmt.Sprintf("bitvec: masked kernel over ids of %d for %d bits", len(m.ids), b.Len()))
	}
	m.w0, m.end = w0, min(b.Len(), len(m.mask)<<6)
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
	switch m.mode {
	case maskStore:
		for ; w != 0; w &= w - 1 {
			p := base + bits.TrailingZeros64(w)
			if m.ids[p] != NoID[T]() {
				return m.stop(w, p)
			}
			m.ids[p] = m.id
		}
	case maskTally:
		for ; w != 0; w &= w - 1 {
			p := base + bits.TrailingZeros64(w)
			j := uint(m.ids[p]) // a negative id converts to a huge one
			if j >= uint(len(m.row)) {
				return m.stop(w, p)
			}
			m.row[j]++
			m.ids[p] = NoID[T]()
		}
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
	w &= flatSegment(m.mask, pos, m.w0)
	return w == 0 || m.word(uint64(w), pos)
}

// span visits [from, to) ∩ the window, a one-fill: the mask's own words.
func (m *masked[T]) span(from, to int) bool {
	if from, to = max(from, m.w0<<6), min(to, m.end); from >= to {
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
	j, pos := v.seek(m.w0 << 6)
	for ; j < len(v.words) && pos < m.end; j++ {
		w := v.words[j]
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
	data, from, need := b.data, m.w0<<3, (m.end+7)>>3
	i, at := b.seek(m.w0 << 6) // at: logical byte position of the current run or chunk
	for i < len(data) && at < need {
		tok := data[i]
		n, next := bbcToken(data, i)
		if n < 0 {
			n, next = bbcLongRun(data, next)
		}
		if n <= 0 {
			return
		}
		i = next
		s, e := max(at, from), at+min(n, need-at)
		switch tok {
		case bbcZeroRun:
		case bbcOneRun:
			if !m.span(8*s, 8*e) {
				return
			}
		default:
			if i+n > len(data) {
				return
			}
			for j := s; j < e; {
				w, k := bbcPiece(data, i+j-at, e-j, j)
				if w &= m.mask[j>>3]; w != 0 && !m.word(w, j>>3<<6) {
					return
				}
				j += k
			}
			i += n
		}
		at = e
	}
}
