package bitvec

import (
	"fmt"
	"math/bits"
)

// Count returns the number of set bits. Fill runs are counted in O(1),
// giving the "fast 1-bits count operations" the paper relies on for EMD and
// joint-distribution counting; the padding-zero invariant (no one-fill
// overhangs Len, no literal has a bit past it) makes masking unnecessary.
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.words {
		switch {
		case w&fillFlag == 0:
			total += bits.OnesCount32(w)
		case w&fillValue != 0:
			total += int(w&countMask) * SegmentBits
		}
	}
	return total
}

// CountRange returns the number of set bits in the half-open logical bit
// range [from, to). It seeks to from (the skip table) and walks the
// compressed words from there, so a range covered by fill words costs O(1)
// per run. This is the primitive behind the spatial-unit scan of the
// correlation-mining algorithm (Algorithm 2, line 7).
func (v *Vector) CountRange(from, to int) int {
	if from < 0 || to > v.nbits || from > to {
		panic(fmt.Sprintf("bitvec: CountRange[%d,%d) out of range [0,%d]", from, to, v.nbits))
	}
	total := 0
	j, pos := v.seek(from)
	for ; j < len(v.words) && pos < to; j++ {
		w := v.words[j]
		end := pos + SegmentBits
		if w&fillFlag != 0 {
			end = pos + int(w&countMask)*SegmentBits
		}
		if s, e := max(pos, from), min(end, to); s < e {
			switch {
			case w&fillFlag == 0:
				total += bits.OnesCount32((w & literalMask >> uint(s-pos)) & (uint32(1)<<uint(e-s) - 1))
			case w&fillValue != 0:
				total += e - s
			}
		}
		pos = end
	}
	return total
}
