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
