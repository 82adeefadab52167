package bitvec

import (
	"fmt"
	"math/bits"
)

// ID is an element type WriteIDs can decode bin ids into: one or two bytes
// for the selection scorer's per-element id arrays (up to 256 and 65 536
// bins), four for the query layer's correlation scratch.
type ID interface {
	~uint8 | ~uint16 | ~int32
}

// WriteIDs stores id into dst at every set-bit position of b — the id-decode
// kernel: calling it for every bin of an index turns the index into one bin
// id per element in O(n). Each codec has one kernel body, instantiated per
// element width; any other Bitmap implementation is re-encoded as WAH first.
// dst must hold at least b.Len() elements.
func WriteIDs[T ID](b Bitmap, dst []T, id T) {
	if len(dst) < b.Len() {
		panic(fmt.Sprintf("bitvec: WriteIDs dst of %d for %d bits", len(dst), b.Len()))
	}
	if c, ok := b.(*BBC); ok {
		writeIDsBBC(c, dst, id)
		return
	}
	writeIDsWAH(ToVector(b), dst, id)
}

// writeIDsWAH turns fill runs into contiguous range writes, so a decode has
// no per-bit closure overhead.
func writeIDsWAH[T ID](v *Vector, dst []T, id T) {
	var it runIter
	it.reset(v.words)
	base := 0
	for it.valid() && base < v.nbits {
		if it.fill {
			end := base + it.run*SegmentBits
			if it.word&fillValue != 0 {
				hi := end
				if hi > v.nbits {
					hi = v.nbits
				}
				for p := base; p < hi; p++ {
					dst[p] = id
				}
			}
			base = end
			it.consume(it.run)
			continue
		}
		w := it.payload()
		for w != 0 {
			j := bits.TrailingZeros32(w)
			if p := base + j; p < v.nbits {
				dst[p] = id
			}
			w &= w - 1
		}
		base += SegmentBits
		it.consume(1)
	}
}

// writeIDsBBC reads straight off the byte stream: one-runs are range
// writes, literal bytes are walked bit by bit (their padding is zero, so no
// position needs a bound check).
func writeIDsBBC[T ID](b *BBC, dst []T, id T) {
	var t bbcTokIter
	t.reset(b.data)
	base := 0 // first bit of the current run or chunk
	for t.valid() {
		switch {
		case !t.fill:
			for j, v := range t.lit[t.lp : t.lp+t.n] {
				for p := base + 8*j; v != 0; v &= v - 1 {
					dst[p+bits.TrailingZeros8(v)] = id
				}
			}
		case t.fb != 0:
			for p, end := base, min(base+8*t.n, b.nbits); p < end; p++ {
				dst[p] = id
			}
		}
		base += 8 * t.n
		t.consume(t.n)
	}
}
