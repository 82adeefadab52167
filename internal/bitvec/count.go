package bitvec

import (
	"fmt"
	"math/bits"
)

// Count returns the number of set bits. Fill runs are counted in O(1),
// giving the "fast 1-bits count operations" the paper relies on for EMD and
// joint-distribution counting.
func (v *Vector) Count() int {
	total := 0
	bitsLeft := v.nbits
	var it runIter
	it.reset(v.words)
	for it.valid() && bitsLeft > 0 {
		if it.fill {
			n := it.run * SegmentBits
			if n > bitsLeft {
				n = bitsLeft
			}
			if it.word&fillValue != 0 {
				total += n
			}
			bitsLeft -= it.run * SegmentBits
			it.consume(it.run)
			continue
		}
		w := it.payload()
		if bitsLeft < SegmentBits {
			w &= uint32(1)<<uint(bitsLeft) - 1
		}
		total += bits.OnesCount32(w)
		bitsLeft -= SegmentBits
		it.consume(1)
	}
	return total
}

// CountRange returns the number of set bits in the half-open logical bit
// range [from, to). It walks the compressed runs, so a range covered by fill
// words costs O(1) per run. This is the primitive behind the spatial-unit
// scan of the correlation-mining algorithm (Algorithm 2, line 7).
func (v *Vector) CountRange(from, to int) int {
	if from < 0 || to > v.nbits || from > to {
		panic(fmt.Sprintf("bitvec: CountRange[%d,%d) out of range [0,%d]", from, to, v.nbits))
	}
	if from == to {
		return 0
	}
	total := 0
	base := 0 // logical bit offset of the start of the current run
	var it runIter
	it.reset(v.words)
	for it.valid() && base < to {
		if it.fill {
			span := it.run * SegmentBits
			end := base + span
			if it.word&fillValue != 0 {
				lo, hi := base, end
				if lo < from {
					lo = from
				}
				if hi > to {
					hi = to
				}
				if hi > lo {
					total += hi - lo
				}
			}
			base = end
			it.consume(it.run)
			continue
		}
		end := base + SegmentBits
		if end > from { // segment overlaps the range
			w := it.payload()
			lo := 0
			if from > base {
				lo = from - base
			}
			hi := SegmentBits
			if to < end {
				hi = to - base
			}
			w >>= uint(lo)
			w &= uint32(1)<<uint(hi-lo) - 1
			total += bits.OnesCount32(w)
		}
		base = end
		it.consume(1)
	}
	return total
}

// CountUnits splits the vector into consecutive units of unitSize bits (the
// last unit may be short) and returns the set-bit count of each. It is a
// single-pass equivalent of calling CountRange once per unit and is used for
// the per-spatial-unit 1-bit distributions of correlation mining.
func (v *Vector) CountUnits(unitSize int) []int {
	if unitSize <= 0 {
		panic("bitvec: CountUnits requires unitSize > 0")
	}
	n := (v.nbits + unitSize - 1) / unitSize
	out := make([]int, n)
	if v.nbits == 0 {
		return out
	}
	base := 0
	var it runIter
	it.reset(v.words)
	for it.valid() && base < v.nbits {
		if it.fill {
			span := it.run * SegmentBits
			end := base + span
			if end > v.nbits {
				end = v.nbits
			}
			if it.word&fillValue != 0 {
				// distribute the solid run across units
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
			it.consume(it.run)
			continue
		}
		w := it.payload()
		limit := base + SegmentBits
		if limit > v.nbits {
			w &= uint32(1)<<uint(v.nbits-base) - 1
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

// AndCount returns Count(v AND o) without materializing the result vector.
// The mining inner loop calls this for every bin pair, so avoiding the
// intermediate allocation matters.
func (v *Vector) AndCount(bm Bitmap) int {
	o, ok := bm.(*Vector)
	if !ok {
		return genericBinaryCount(v, bm, opAnd)
	}
	if v.nbits != o.nbits {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.nbits, o.nbits))
	}
	var a, b runIter
	a.reset(v.words)
	b.reset(o.words)
	total := 0
	bitsLeft := v.nbits
	for a.valid() && b.valid() && bitsLeft > 0 {
		if a.fill && b.fill {
			n := a.run
			if b.run < n {
				n = b.run
			}
			if a.fillBit()&b.fillBit() != 0 {
				span := n * SegmentBits
				if span > bitsLeft {
					span = bitsLeft
				}
				total += span
			}
			bitsLeft -= n * SegmentBits
			a.consume(n)
			b.consume(n)
			continue
		}
		w := a.payload() & b.payload()
		if bitsLeft < SegmentBits {
			w &= uint32(1)<<uint(bitsLeft) - 1
		}
		total += bits.OnesCount32(w)
		bitsLeft -= SegmentBits
		a.consume(1)
		b.consume(1)
	}
	return total
}

// XorCount returns Count(v XOR o) without materializing the result. This is
// the paper's spatial EMD primitive: the number of positions where exactly
// one of the two bin vectors has an element.
func (v *Vector) XorCount(bm Bitmap) int {
	o, ok := bm.(*Vector)
	if !ok {
		return genericBinaryCount(v, bm, opXor)
	}
	if v.nbits != o.nbits {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.nbits, o.nbits))
	}
	var a, b runIter
	a.reset(v.words)
	b.reset(o.words)
	total := 0
	bitsLeft := v.nbits
	for a.valid() && b.valid() && bitsLeft > 0 {
		if a.fill && b.fill {
			n := a.run
			if b.run < n {
				n = b.run
			}
			if a.fillBit()^b.fillBit() != 0 {
				span := n * SegmentBits
				if span > bitsLeft {
					span = bitsLeft
				}
				total += span
			}
			bitsLeft -= n * SegmentBits
			a.consume(n)
			b.consume(n)
			continue
		}
		w := a.payload() ^ b.payload()
		if bitsLeft < SegmentBits {
			w &= uint32(1)<<uint(bitsLeft) - 1
		}
		total += bits.OnesCount32(w)
		bitsLeft -= SegmentBits
		a.consume(1)
		b.consume(1)
	}
	return total
}
