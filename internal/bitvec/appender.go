package bitvec

import "fmt"

// Appender builds a compressed vector incrementally, one 31-bit segment at a
// time, merging runs as it goes. It is the mechanism behind the paper's
// Algorithm 1: a freshly produced segment is classified as all-ones, all-zeros
// or mixed and either extends the trailing fill word or is appended as a new
// fill/literal word, so the vector is never held uncompressed.
//
// The zero value is ready to use.
type Appender struct {
	words   []uint32
	nbits   int
	partial bool // a short final segment has been appended
	// lits/fills tally appended words for telemetry; plain fields so the
	// hot loop never touches shared state (flushed once in Vector).
	lits  int
	fills int
}

// Reset discards all appended content, retaining capacity.
func (a *Appender) Reset() {
	a.words = a.words[:0]
	a.nbits = 0
	a.partial = false
	a.lits, a.fills = 0, 0
}

// Len returns the number of logical bits appended so far.
func (a *Appender) Len() int { return a.nbits }

// AppendSegment appends one full 31-bit segment (bits 0..30 of seg).
// This is the merge step of Algorithm 1: all-ones and all-zeros segments
// extend or start fill words, mixed segments become literals.
func (a *Appender) AppendSegment(seg uint32) {
	a.checkNotPartial()
	seg &= literalMask
	switch seg {
	case literalMask:
		a.appendFill(1, 1)
	case 0:
		a.appendFill(0, 1)
	default:
		a.words = append(a.words, seg)
		a.lits++
	}
	a.nbits += SegmentBits
}

// AppendPartial appends the final, possibly short, segment of a vector:
// the low `width` bits of seg (1..31). Partial segments are stored as
// literals or merged as fills exactly like full ones, but only `width`
// logical bits are accounted for; a partial segment must be the last thing
// appended before Vector is called.
func (a *Appender) AppendPartial(seg uint32, width int) {
	if width <= 0 || width > SegmentBits {
		panic(fmt.Sprintf("bitvec: AppendPartial width %d out of range (0,%d]", width, SegmentBits))
	}
	if width == SegmentBits {
		a.AppendSegment(seg)
		return
	}
	a.checkNotPartial()
	seg &= uint32(1)<<uint(width) - 1
	// A short segment is physically a full word; pad the unused high bits
	// with zeros and record the true logical length.
	if seg == 0 {
		a.appendFill(0, 1)
	} else {
		a.words = append(a.words, seg)
		a.lits++
	}
	a.nbits += width
	a.partial = true
}

// AppendFill appends n consecutive segments of the given bit (0 or 1).
func (a *Appender) AppendFill(bit uint32, n int) {
	if n <= 0 {
		return
	}
	a.checkNotPartial()
	a.appendFill(bit, n)
	a.nbits += n * SegmentBits
}

// checkNotPartial rejects appends after a short final segment: the encoding
// has no way to place bits after a partial word, so continuing would
// silently corrupt positions. (Vector or Reset clears the state.)
func (a *Appender) checkNotPartial() {
	if a.partial {
		panic("bitvec: append after AppendPartial; a partial segment must be the final append")
	}
}

// appendFill merges with a trailing fill word of the same value when possible,
// splitting runs that exceed the 30-bit counter.
func (a *Appender) appendFill(bit uint32, n int) {
	fv := uint32(0)
	if bit != 0 {
		fv = fillValue
	}
	if last := len(a.words) - 1; last >= 0 {
		w := a.words[last]
		if w&fillFlag != 0 && w&fillValue == fv {
			room := maxRun - int(w&countMask)
			if room >= n {
				a.words[last] = w + uint32(n)
				return
			}
			a.words[last] = w + uint32(room)
			n -= room
		}
	}
	for n > maxRun {
		a.words = append(a.words, fillFlag|fv|uint32(maxRun))
		a.fills++
		n -= maxRun
	}
	if n > 0 {
		a.words = append(a.words, fillFlag|fv|uint32(n))
		a.fills++
	}
}

// Vector finalizes the appender and returns the built vector. The appender
// is reset and may be reused.
func (a *Appender) Vector() *Vector {
	a.flushTelemetry()
	v := &Vector{words: a.words, nbits: a.nbits}
	a.words = nil
	a.nbits = 0
	a.partial = false
	return v
}

// Snapshot returns a copy of the current contents without resetting, so
// the appender may go on or be reused as scratch (the RunEncoder's).
func (a *Appender) Snapshot() *Vector {
	return &Vector{words: append([]uint32(nil), a.words...), nbits: a.nbits}
}

// SizeBytes reports the current compressed size.
func (a *Appender) SizeBytes() int { return 4 * len(a.words) }
