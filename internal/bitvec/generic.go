package bitvec

import "math/bits"

// Generic, codec-independent implementations over the Run iterator. These
// are the cross-codec fallbacks: a WAH×BBC AND, a BBC CountUnits, etc.
// They never decompress an operand — fill runs are consumed in O(1) — and
// binary ops emit a WAH vector, the universal intermediate form.

// genericBinary merges two bitmaps of any codecs into a WAH result.
func genericBinary(a, b Bitmap, k opKind) *Vector {
	n := checkLen(a, b)
	countOp(k)
	var x, y bmIter
	x.reset(a.Runs())
	y.reset(b.Runs())
	var out Appender
	left := n
	for left > 0 && x.ok && y.ok {
		if x.run.Fill && y.run.Fill {
			m := x.run.N
			if y.run.N < m {
				m = y.run.N
			}
			if span := m * SegmentBits; span <= left {
				out.AppendFill(k.fillBits(x.run.Bit&1, y.run.Bit&1), m)
				left -= span
				x.consume(m)
				y.consume(m)
				continue
			}
		}
		w := k.apply(x.payload(), y.payload()) & literalMask
		if left >= SegmentBits {
			out.AppendSegment(w)
			left -= SegmentBits
		} else {
			out.AppendPartial(w, left)
			left = 0
		}
		x.consume(1)
		y.consume(1)
	}
	for left >= SegmentBits {
		full := left / SegmentBits
		out.AppendFill(0, full)
		left -= full * SegmentBits
	}
	if left > 0 {
		out.AppendPartial(0, left)
	}
	return out.Vector()
}

// genericBinaryCount returns Count(a OP b) without materializing the result.
func genericBinaryCount(a, b Bitmap, k opKind) int {
	n := checkLen(a, b)
	var x, y bmIter
	x.reset(a.Runs())
	y.reset(b.Runs())
	total := 0
	left := n
	for left > 0 && x.ok && y.ok {
		if x.run.Fill && y.run.Fill {
			m := x.run.N
			if y.run.N < m {
				m = y.run.N
			}
			if k.fillBits(x.run.Bit&1, y.run.Bit&1) != 0 {
				span := m * SegmentBits
				if span > left {
					span = left
				}
				total += span
			}
			left -= m * SegmentBits
			x.consume(m)
			y.consume(m)
			continue
		}
		w := k.apply(x.payload(), y.payload()) & literalMask
		if left < SegmentBits {
			w &= uint32(1)<<uint(left) - 1
		}
		total += bits.OnesCount32(w)
		left -= SegmentBits
		x.consume(1)
		y.consume(1)
	}
	return total
}

// genericCountUnits is CountUnits for any codec (see Vector.CountUnits).
func genericCountUnits(b Bitmap, unitSize int) []int {
	if unitSize <= 0 {
		panic("bitvec: CountUnits requires unitSize > 0")
	}
	nbits := b.Len()
	out := make([]int, (nbits+unitSize-1)/unitSize)
	if nbits == 0 {
		return out
	}
	base := 0
	var it bmIter
	it.reset(b.Runs())
	for it.ok && base < nbits {
		if it.run.Fill {
			span := it.run.N * SegmentBits
			end := base + span
			if end > nbits {
				end = nbits
			}
			if it.run.Bit != 0 {
				p := base
				for p < end {
					u := p / unitSize
					next := (u + 1) * unitSize
					if next > end {
						next = end
					}
					out[u] += next - p
					p = next
				}
			}
			base += span
			it.consume(it.run.N)
			continue
		}
		w := it.run.Word & literalMask
		if base+SegmentBits > nbits {
			w &= uint32(1)<<uint(nbits-base) - 1
		}
		for w != 0 {
			j := bits.TrailingZeros32(w)
			out[(base+j)/unitSize]++
			w &= w - 1
		}
		base += SegmentBits
		it.consume(1)
	}
	return out
}

// genericIterate visits every set bit in ascending order.
func genericIterate(b Bitmap, fn func(pos int) bool) {
	nbits := b.Len()
	base := 0
	var it bmIter
	it.reset(b.Runs())
	for it.ok && base < nbits {
		if it.run.Fill {
			span := it.run.N * SegmentBits
			if it.run.Bit != 0 {
				end := base + span
				if end > nbits {
					end = nbits
				}
				for p := base; p < end; p++ {
					if !fn(p) {
						return
					}
				}
			}
			base += span
			it.consume(it.run.N)
			continue
		}
		w := it.run.Word & literalMask
		for w != 0 {
			j := bits.TrailingZeros32(w)
			p := base + j
			if p >= nbits {
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

// genericEqual compares logical contents across codecs.
func genericEqual(a, b Bitmap) bool {
	if a.Len() != b.Len() {
		return false
	}
	return genericBinaryCount(a, b, opXor) == 0
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
